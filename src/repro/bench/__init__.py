"""Benchmark harness: one module per paper table/figure (see DESIGN.md)."""

from repro.bench.registry import FS_NAMES, make_fs
from repro.bench.harness import Table

__all__ = ["FS_NAMES", "Table", "make_fs"]
