"""The memory-mapped I/O surface (what "MMIO" means to applications).

The paper's library interposes on ``mmap`` so that loads and stores to
the mapped region become crash-consistent. In the simulation the same
idea is an object with Python's buffer idioms:

    mm = handle.mmap()
    mm[0:5] = b"hello"      # one synchronized atomic operation
    assert mm[0:5] == b"hello"
    mm.flush()              # msync: a fence (data is already safe)

Slice assignment routes through the MGSP write flow (shadow logs +
metadata log), so *every store is failure-atomic* — the semantic the
paper contrasts against Libnvmmio's fsync-granularity atomicity. Reads
assemble the latest bytes from the multi-granularity logs.

``MgspMmap`` works for any :class:`~repro.fsapi.interface.FileHandle`
that implements ``write``/``read`` (so the baselines can be driven
through the same interface, with their own weaker guarantees).
"""

from __future__ import annotations

from typing import Union

from repro.errors import FsError


class MgspMmap:
    """A mapped view of one file; subscripts are byte offsets."""

    def __init__(self, handle, length: int = 0) -> None:
        self.handle = handle
        self.length = length or handle.inode.capacity
        self.closed = False

    # -- buffer-style access -----------------------------------------------

    def _check(self) -> None:
        if self.closed:
            raise FsError("mmap view is closed")

    def _bounds(self, key: Union[int, slice]) -> tuple:
        if isinstance(key, int):
            if key < 0:
                key += self.length
            if not 0 <= key < self.length:
                raise IndexError(f"offset {key} outside mapping of {self.length}")
            return key, key + 1
        start, stop, step = key.indices(self.length)
        if step != 1:
            raise ValueError("mmap views do not support strided access")
        return start, stop

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key) -> bytes:
        self._check()
        start, stop = self._bounds(key)
        if stop <= start:
            return b""
        obs = self.handle.fs.obs
        frame = obs.span_begin("mmio.read") if obs.enabled else None
        data = self.handle.read(start, stop - start)
        if frame is not None:
            obs.span_end(frame)
        # Reads past EOF within the mapping observe zeros (fresh pages).
        return data.ljust(stop - start, b"\0")

    def __setitem__(self, key, value: Union[int, bytes]) -> None:
        self._check()
        start, stop = self._bounds(key)
        value = bytes([value]) if isinstance(value, int) else bytes(value)
        if len(value) != stop - start:
            raise ValueError(
                f"store of {len(value)} bytes into a {stop - start}-byte range"
            )
        if value:
            obs = self.handle.fs.obs
            frame = obs.span_begin("mmio.write") if obs.enabled else None
            self.handle.write(start, value)
            if frame is not None:
                obs.span_end(frame)

    # -- msync-family ----------------------------------------------------------

    def flush(self, offset: int = 0, length: int = 0) -> None:
        """msync(): with MGSP every store is already a synchronized
        atomic op, so this is just a fence (the paper's Fig 7 story)."""
        self._check()
        obs = self.handle.fs.obs
        frame = obs.span_begin("mmio.flush") if obs.enabled else None
        self.handle.fsync()
        if frame is not None:
            obs.span_end(frame)

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "MgspMmap":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
