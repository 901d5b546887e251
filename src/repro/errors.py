"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single type. Subsystems raise the most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class NvmError(ReproError):
    """Errors from the NVM device simulator."""


class OutOfRangeError(NvmError):
    """An access fell outside the device or a mapped region."""


class TornWriteError(NvmError):
    """A store larger than the atomic unit was requested atomically."""


class AllocationError(NvmError):
    """The log-block allocator ran out of space."""


class CrashRequested(NvmError):
    """Raised internally when a scheduled crash point fires.

    Crash-injection tests install a :class:`~repro.nvm.crash.CrashPlan`
    that raises this to unwind out of the I/O path; the durable device
    image at that moment is what recovery sees.
    """


class FsError(ReproError):
    """Errors from the file-system layer."""


class FileNotFound(FsError):
    """Named file does not exist in the simulated namespace."""


class FileExists(FsError):
    """Exclusive create of a name that already exists."""


class BadFileDescriptor(FsError):
    """Operation on a closed or invalid handle."""


class FileBusy(FsError):
    """MGSP files are single-open: a second opener must wait for close
    (§III-C2: MGL is designed for intra-process parallelism; threads
    share one handle)."""


class ReadOnlyError(FsError):
    """Write attempted through a read-only handle."""


class DbError(ReproError):
    """Errors from the embedded database engine."""


class TransactionError(DbError):
    """Illegal transaction state transition (nested begin, commit w/o begin)."""


class SchemaError(DbError):
    """Unknown table/column or row/schema mismatch."""


class SimulationError(ReproError):
    """Errors from the discrete-event engine (deadlock, bad process)."""
