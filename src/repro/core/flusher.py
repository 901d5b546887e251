"""Asynchronous write-back epochs: the background checkpoint scheduler.

The paper reclaims log space at ``close()``; a long-running writer
otherwise accumulates an unbounded fresh-log backlog that stretches
recovery and eventually exhausts the log area, forcing a synchronous
stop-the-world checkpoint *inside* a write. With
``MgspConfig.async_writeback`` the scheduler drains files proactively at
*epoch boundaries*: once a file has accumulated ``writeback_epoch_bytes``
fresh log bytes since its last drain, its logs are written back on the
filesystem's background trace stream
(``MgspFilesystem.bg_recorder``). In the simulated timeline those
traces replay as a dedicated flusher thread competing for NVM channels
(see ``ReplayEngine.run(background=...)``); the foreground write that
crossed the boundary pays only the hand-off.

Crash consistency is untouched: a drain is exactly
:meth:`repro.core.file.MgspFile.checkpoint` — copy while the bitmap
still points at the logs, fence, then atomic per-node clears — and an
epoch boundary always lands *between* two synchronized atomic ops.
"""

from __future__ import annotations

from typing import Dict


class WritebackScheduler:
    """Per-file fresh-log accounting + epoch-boundary drains."""

    def __init__(self, fs, epoch_bytes: int) -> None:
        self.fs = fs
        self.epoch_bytes = epoch_bytes
        self._fresh_bytes: Dict[int, int] = {}
        # observability
        self.epochs = 0
        self.bytes_drained = 0
        self.deferred = 0

    def note_write(self, handle, nbytes: int) -> None:
        """Record one completed synchronized write; drain on boundary."""
        key = handle.inode.id
        fresh = self._fresh_bytes.get(key, 0) + nbytes
        self._fresh_bytes[key] = fresh
        if fresh >= self.epoch_bytes:
            self.drain(handle)

    def drain(self, handle) -> int:
        """Checkpoint *handle* on the background trace stream."""
        key = handle.inode.id
        if handle.closed:
            # Pop rather than zero: zeroing would resurrect entries that
            # forget() already dropped, leaking one dict slot per
            # close/unlink cycle in a long-running service.
            self._fresh_bytes.pop(key, None)
            return 0
        txn = handle._open_txn
        if txn is not None and txn.open:
            # Staged transaction words must not be checkpointed out from
            # under the transaction; retry at the next boundary.
            self.deferred += 1
            return 0
        fs = self.fs
        obs = fs.obs
        frame = obs.span_begin("flusher.drain") if obs.enabled else None
        fg_recorder = fs.recorder
        fs.recorder = fs.bg_recorder
        fs.device.reprice(fs.bg_recorder)
        try:
            copied = handle.checkpoint()
        finally:
            fs.recorder = fg_recorder
            fs.device.reprice(None)
        self._fresh_bytes[key] = 0
        self.epochs += 1
        self.bytes_drained += copied
        if frame is not None:
            obs.span_end(frame)
            reg = obs.registry
            reg.counter("flusher_epochs_total").inc()
            reg.counter("flusher_bytes_total").inc(copied)
            reg.gauge("flusher_deferred").set(self.deferred)
        return copied

    def forget(self, inode_id: int) -> None:
        """Drop accounting for a closed file (its logs are gone)."""
        self._fresh_bytes.pop(inode_id, None)
