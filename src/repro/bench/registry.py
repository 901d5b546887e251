"""File-system factories used by every experiment."""

from __future__ import annotations

from typing import Optional

from repro.core import MgspConfig, MgspFilesystem
from repro.fs import Ext4, Ext4Dax, Libnvmmio, Nova
from repro.fsapi.interface import FileSystem
from repro.nvm.timing import TimingModel

FS_NAMES = ("Ext4-DAX", "Libnvmmio", "NOVA", "MGSP")
EXT4_MODES = ("Ext4-wb", "Ext4-ordered", "Ext4-journal")


def make_fs(
    name: str,
    device_size: int = 256 << 20,
    timing: Optional[TimingModel] = None,
    mgsp_config: Optional[MgspConfig] = None,
) -> FileSystem:
    """Build a fresh file system (own simulated device) by paper name."""
    if name == "Ext4-DAX":
        return Ext4Dax(device_size=device_size, timing=timing)
    if name == "Libnvmmio":
        return Libnvmmio(device_size=device_size, timing=timing)
    if name == "NOVA":
        return Nova(device_size=device_size, timing=timing)
    if name == "MGSP":
        return MgspFilesystem(device_size=device_size, timing=timing, config=mgsp_config)
    if name.startswith("Ext4-"):
        mode = name.split("-", 1)[1]
        return Ext4(device_size=device_size, timing=timing, mode=mode)
    raise ValueError(f"unknown file system {name!r}; expected one of {FS_NAMES + EXT4_MODES}")


def device_size_for(fsize: int) -> int:
    """A device comfortably holding one benchmark file plus log space."""
    return max(64 << 20, 4 * fsize)
