"""MGSP as a mounted file system."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import MgspConfig
from repro.core.file import MgspFile
from repro.core.flusher import WritebackScheduler
from repro.core.locks import MglLockManager
from repro.core.metalog import MetadataLog
from repro.core.radix import required_table_len
from repro.errors import FileBusy, FileNotFound
from repro.fsapi.interface import FileSystem, OpenFlags
from repro.nvm.allocator import LogAllocator
from repro.sim.trace import TraceRecorder


class MgspFilesystem(FileSystem):
    """User-space crash-consistent MMIO library (the paper's system).

    Every write is a synchronized atomic operation; ``fsync`` is a
    fence. Files opened through this class correspond to the paper's
    ``O_ATOMIC`` interposition path.
    """

    name = "MGSP"
    kernel_space = False
    log_fraction = 0.40
    #: the async write-back flusher replays as a daemon thread
    bg_daemon = True

    def __init__(self, *args, config: Optional[MgspConfig] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.config = config or MgspConfig()
        area = self.volume.layout.log_area
        self.logs = LogAllocator(area.start, area.end)
        self.metalog = MetadataLog(self.device, self.volume.layout.metalog)
        self.mgl = MglLockManager(self.config, self.recorder)
        self._refs: Dict[int, int] = {}
        self._txn_counter = 0
        self._init_flusher()

    def _init_flusher(self) -> None:
        """Asynchronous write-back epochs: background checkpoint traces
        land on ``bg_recorder`` and replay as a flusher thread."""
        self.bg_recorder = TraceRecorder(self.timing)
        self.flusher = (
            WritebackScheduler(self, self.config.writeback_epoch_bytes)
            if self.config.async_writeback
            else None
        )

    def take_bg_traces(self):
        return self.bg_recorder.take_completed()

    # -- handle refcounts (greedy locking gate) --------------------------------

    def handle_refs(self, inode_id: int) -> int:
        return self._refs.get(inode_id, 0)

    def release_handle(self, inode_id: int) -> None:
        self._refs[inode_id] = max(0, self._refs.get(inode_id, 1) - 1)
        self.open_handles = max(0, self.open_handles - 1)

    # -- namespace ---------------------------------------------------------------

    def create(self, name: str, capacity: int) -> MgspFile:
        inode = self.volume.create(
            name, capacity, node_table_len=required_table_len(capacity, self.config)
        )
        self.open_handles += 1
        self._refs[inode.id] = self._refs.get(inode.id, 0) + 1
        return MgspFile(self, inode)

    def open(self, name: str, flags: OpenFlags = OpenFlags.RDWR) -> MgspFile:
        if not self.volume.exists(name):
            if flags & OpenFlags.CREAT:
                return self.create(name, 4096)
            raise FileNotFound(name)
        inode = self.volume.lookup(name)
        if self._refs.get(inode.id, 0) > 0:
            # The paper's sharing model: threads share one handle; a
            # second process-level open waits for close.
            raise FileBusy(f"{name} is already open via MGSP")
        self.open_handles += 1
        self._refs[inode.id] = self._refs.get(inode.id, 0) + 1
        handle = MgspFile(self, inode)
        handle.read_only = not bool(flags & OpenFlags.RDWR)
        handle.tree.load_from_table()
        return handle

    def unlink(self, name: str) -> None:
        """Unlink *name* and drop its write-back accounting.

        The scheduler keys fresh-log counters by inode id; without the
        ``forget`` an unlinked-while-open file would keep its stale
        counters alive (and the next epoch drain for a dangling handle
        used to persist its size into the freed — possibly reused —
        inode slot; ``Volume`` now refuses slot writes for unlinked
        inodes, see :attr:`repro.fsapi.volume.Inode.unlinked`).
        """
        inode = self.volume.lookup(name)
        super().unlink(name)
        if self.flusher is not None:
            self.flusher.forget(inode.id)

    # -- transactions (future-work extension, see repro.core.txn) -------------------

    def begin_transaction(self, handle: MgspFile):
        """Open a failure-atomic multi-write transaction on *handle*."""
        from repro.core.txn import MgspTransaction

        return MgspTransaction(self, handle)

    def next_txn_id(self) -> int:
        self._txn_counter += 1
        return self._txn_counter

    # -- simulated-thread lifecycle -------------------------------------------------

    def end_thread(self, thread: int) -> None:
        """Emit the trailer that releases lazily retained intention locks."""
        self.recorder.begin_op("thread-trailer")
        self.mgl.release_retained(thread)
        self.recorder.end_op()

    @classmethod
    def remount(
        cls,
        device,
        config: Optional[MgspConfig] = None,
        timing=None,
    ) -> "MgspFilesystem":
        """Mount an existing device image (use :func:`repro.core.recover`
        first if the image may hold in-flight operations)."""
        from repro.fsapi.volume import Volume

        fs = cls(device=device, timing=timing, config=config)
        fs.volume = Volume.mount(device, fs.volume.layout)
        return fs
