"""The POSIX-ish surface every simulated file system implements."""

from __future__ import annotations

import abc
import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import BadFileDescriptor, FsError
from repro.fsapi.volume import Inode, Volume
from repro.nvm.device import NvmDevice
from repro.nvm.timing import OptaneTiming, TimingModel
from repro.obs.spans import NULL_SINK
from repro.sim.trace import TraceRecorder


class OpenFlags(enum.Flag):
    RDONLY = 0
    RDWR = enum.auto()
    CREAT = enum.auto()


@dataclass
class ApiStats:
    """Traffic at the file-system API (the denominators for Table II)."""

    bytes_written: int = 0
    bytes_read: int = 0
    writes: int = 0
    reads: int = 0
    fsyncs: int = 0

    def snapshot(self) -> "ApiStats":
        return ApiStats(**vars(self))

    def delta(self, since: "ApiStats") -> "ApiStats":
        return ApiStats(
            bytes_written=self.bytes_written - since.bytes_written,
            bytes_read=self.bytes_read - since.bytes_read,
            writes=self.writes - since.writes,
            reads=self.reads - since.reads,
            fsyncs=self.fsyncs - since.fsyncs,
        )


class FileHandle(abc.ABC):
    """An open file. Offsets are explicit (pread/pwrite style)."""

    inode: Inode  # set by every backend's handle

    def __init__(self, fs: "FileSystem", name: str) -> None:
        self.fs = fs
        self.name = name
        self.closed = False
        self.read_only = False

    @property
    @abc.abstractmethod
    def size(self) -> int:
        ...

    @abc.abstractmethod
    def write(self, offset: int, data: bytes) -> int:
        ...

    @abc.abstractmethod
    def read(self, offset: int, length: int) -> bytes:
        ...

    @abc.abstractmethod
    def fsync(self) -> None:
        ...

    def mmap_view(self) -> Tuple[NvmDevice, int, int]:
        """(device, base offset, capacity) for direct load/store access.

        Only meaningful for DAX-capable file systems; the default raises.
        """
        raise NotImplementedError(f"{self.fs.name} does not support DAX mmap")

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise BadFileDescriptor(f"{self.name} is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self.read_only:
            from repro.errors import ReadOnlyError

            raise ReadOnlyError(f"{self.name} was opened read-only")

    def _check_range(self, offset: int, length: int) -> None:
        """A write must fit ``[0, capacity)``: past either end of the
        extent it would land in a neighbouring file. Called before
        ``fs.op``, so a rejected write stores nothing, emits no trace
        and counts in no statistic."""
        if offset < 0 or offset + length > self.inode.capacity:
            raise FsError(
                f"{self.name}: write [{offset}, {offset + length}) "
                f"outside capacity {self.inode.capacity}"
            )

    def _check_offset(self, offset: int) -> None:
        """A read clips itself at ``size``, so the one read that is out
        of range starts below zero — in the previous file's bytes."""
        if offset < 0:
            raise FsError(f"{self.name}: read at negative offset {offset}")

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FileSystem(abc.ABC):
    """A mounted file system over one NVM device.

    ``kernel_space`` decides whether each call pays a syscall or a
    user-space library-call entry cost — the central software-stack
    difference the paper measures.
    """

    name = "fs"
    kernel_space = True

    #: fraction of the device given to the log/CoW area (per-FS override)
    log_fraction = 0.30
    #: simulated thread issuing the current op (set by workload runners)
    current_thread = 0
    #: whether the background trace stream replays as a daemon thread
    bg_daemon = False

    def __init__(
        self,
        device: Optional[NvmDevice] = None,
        device_size: int = 256 * 1024 * 1024,
        timing: Optional[TimingModel] = None,
    ) -> None:
        from repro.fsapi.layout import VolumeLayout

        self.timing = timing or OptaneTiming()
        self.device = device or NvmDevice(device_size, timing=self.timing)
        self.recorder = TraceRecorder(self.timing)
        self.device.attach(self.recorder)
        layout = VolumeLayout.for_device(self.device.size, log_fraction=self.log_fraction)
        self.volume = Volume(self.device, layout)
        self.api = ApiStats()
        self.open_handles = 0
        #: telemetry sink; repro.obs.attach_telemetry swaps in a live one
        self.obs = NULL_SINK

    # -- namespace ------------------------------------------------------------

    @abc.abstractmethod
    def create(self, name: str, capacity: int) -> FileHandle:
        ...

    @abc.abstractmethod
    def open(self, name: str, flags: OpenFlags = OpenFlags.RDWR) -> FileHandle:
        ...

    def exists(self, name: str) -> bool:
        return self.volume.exists(name)

    def unlink(self, name: str) -> None:
        self.volume.unlink(name)

    # -- cost bracketing --------------------------------------------------------

    @contextmanager
    def op(self, kind: str):
        """Bracket one API call: open a trace and charge the entry cost."""
        obs = self.obs
        frame = obs.span_begin("op." + kind) if obs.enabled else None
        self.recorder.begin_op(kind)
        entry = self.timing.syscall_ns if self.kernel_space else self.timing.user_call_ns
        self.recorder.compute(entry)
        try:
            yield
        finally:
            self.recorder.end_op()
            if frame is not None:
                obs.span_end(frame)

    def take_traces(self):
        return self.recorder.take_completed()

    def take_bg_traces(self):
        """Traces of a background stream; a FS without one has none."""
        return []

    def end_thread(self, thread: int) -> None:
        """Per-thread trailer; nothing to emit unless locks are retained."""

    # -- global sync hooks (overridden where meaningful) --------------------------

    def shutdown(self) -> None:
        """Orderly unmount: everything becomes durable."""
        self.device.drain()
