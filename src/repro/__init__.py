"""MGSP reproduction: crash-consistent memory-mapped I/O on simulated NVM.

Quickstart::

    from repro import MgspFilesystem

    fs = MgspFilesystem(device_size=64 << 20)
    f = fs.create("data", capacity=1 << 20)
    f.write(0, b"hello")          # synchronized atomic operation
    assert f.read(0, 5) == b"hello"
    f.close()

See :mod:`repro.core` for the paper's contribution, :mod:`repro.fs` for
the baseline file systems, :mod:`repro.workloads` for FIO / Mobibench /
TPC-C, and :mod:`repro.bench` for the per-figure harnesses.
"""

from repro.core import MgspConfig, MgspFilesystem, MgspTransaction, recover, verify_file
from repro.fs import Ext4, Ext4Dax, Libnvmmio, Nova
from repro.fsapi import FileSystem, OpenFlags
from repro.nvm import NvmDevice, OptaneTiming

__version__ = "1.0.0"

__all__ = [
    "Ext4",
    "MgspTransaction",
    "verify_file",
    "Ext4Dax",
    "FileSystem",
    "Libnvmmio",
    "MgspConfig",
    "MgspFilesystem",
    "Nova",
    "NvmDevice",
    "OpenFlags",
    "OptaneTiming",
    "recover",
    "__version__",
]
