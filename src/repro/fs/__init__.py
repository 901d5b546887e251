"""Baseline file systems the paper compares against.

- :class:`~repro.fs.ext4.Ext4` — page-cache Ext4 with ``wb`` / ``ordered``
  / ``journal`` modes (Fig 1 only).
- :class:`~repro.fs.ext4dax.Ext4Dax` — DAX in-place writes, metadata-only
  journal; the underlying FS for Libnvmmio and MGSP in the paper.
- :class:`~repro.fs.nova.Nova` — log-structured per-write CoW with
  page-granularity atomicity.
- :class:`~repro.fs.libnvmmio.Libnvmmio` — user-space hybrid undo/redo
  differential logging with fsync-time checkpointing.
"""

from repro.fs.ext4 import Ext4
from repro.fs.ext4dax import Ext4Dax
from repro.fs.libnvmmio import Libnvmmio
from repro.fs.nova import Nova

__all__ = ["Ext4", "Ext4Dax", "Libnvmmio", "Nova"]
