"""Filebench-style multi-file personalities (extension workloads).

Two classic personalities over many files, exercising namespace churn
and whole-file I/O that the single-file FIO jobs do not:

- **fileserver**: create/append/whole-read/delete over a directory of
  medium files (write-heavy, file churn);
- **varmail**: mail-server pattern — create+fsync, read, append+fsync,
  delete over many small files (fsync-heavy, the classic journal
  killer).

Each operation set matches the well-known Filebench flowops at a small,
simulation-friendly scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.fsapi.interface import FileSystem

PERSONALITIES = ("fileserver", "varmail")


@dataclass
class FilebenchResult:
    fs_name: str
    personality: str
    operations: int
    elapsed_ns: float
    per_op: Dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.operations / (self.elapsed_ns * 1e-9)


@dataclass
class _Spec:
    nfiles: int
    file_size: int
    append_size: int
    mix: Dict[str, float]  # op -> weight


_SPECS = {
    "fileserver": _Spec(
        nfiles=24,
        file_size=64 * 1024,
        append_size=16 * 1024,
        mix={"create": 0.1, "append": 0.3, "whole_read": 0.3, "stat": 0.2, "delete": 0.1},
    ),
    "varmail": _Spec(
        nfiles=32,
        file_size=8 * 1024,
        append_size=4 * 1024,
        mix={"create_sync": 0.25, "read": 0.25, "append_sync": 0.25, "delete": 0.25},
    ),
}


class _Namespace:
    """Tracks the live files of one run (handles stay open)."""

    def __init__(self, fs: FileSystem, spec: _Spec, seed: int) -> None:
        self.fs = fs
        self.spec = spec
        self.rng = random.Random(seed)
        self.handles: Dict[str, object] = {}
        self.counter = 0

    def fresh_name(self) -> str:
        self.counter += 1
        return f"fb{self.counter:06d}"

    def create(self, sync: bool) -> None:
        name = self.fresh_name()
        handle = self.fs.create(name, capacity=self.spec.file_size * 4)
        payload = b"n" * self.spec.file_size
        handle.write(0, payload)
        if sync:
            handle.fsync()
        self.handles[name] = handle

    def pick(self):
        if not self.handles:
            return None, None
        name = self.rng.choice(sorted(self.handles))
        return name, self.handles[name]

    def append(self, sync: bool) -> None:
        name, handle = self.pick()
        if handle is None:
            return self.create(sync)
        end = handle.size
        take = min(self.spec.append_size, handle.inode.capacity - end)
        if take <= 0:
            return self.delete()
        handle.write(end, b"a" * take)
        if sync:
            handle.fsync()

    def whole_read(self) -> None:
        name, handle = self.pick()
        if handle is not None:
            handle.read(0, handle.size)

    def stat(self) -> None:
        name, handle = self.pick()
        if handle is not None:
            _ = handle.size

    def delete(self) -> None:
        name, handle = self.pick()
        if handle is None:
            return
        handle.close()
        self.fs.unlink(name)
        del self.handles[name]


def run_filebench(
    fs: FileSystem,
    personality: str = "fileserver",
    operations: int = 200,
    seed: int = 23,
) -> FilebenchResult:
    if personality not in _SPECS:
        raise ValueError(f"unknown personality {personality!r}; choices {PERSONALITIES}")
    spec = _SPECS[personality]
    ns = _Namespace(fs, spec, seed)

    # Preload the working set (unmeasured).
    for _ in range(spec.nfiles):
        ns.create(sync=True)
    fs.take_traces()
    fs.take_bg_traces()

    ops_sorted = sorted(spec.mix.items())
    per_op: Dict[str, int] = {}
    rng = random.Random(seed ^ 0xF11E)
    for _ in range(operations):
        pick = rng.random()
        acc = 0.0
        op = ops_sorted[-1][0]
        for name, weight in ops_sorted:
            acc += weight
            if pick < acc:
                op = name
                break
        per_op[op] = per_op.get(op, 0) + 1
        if op == "create":
            ns.create(sync=False)
        elif op == "create_sync":
            ns.create(sync=True)
        elif op == "append":
            ns.append(sync=False)
        elif op == "append_sync":
            ns.append(sync=True)
        elif op == "whole_read" or op == "read":
            ns.whole_read()
        elif op == "stat":
            ns.stat()
        elif op == "delete":
            ns.delete()

    traces = fs.take_traces()
    elapsed = sum(tr.duration_ns(fs.timing.lock_ns) for tr in traces)
    return FilebenchResult(
        fs_name=fs.name,
        personality=personality,
        operations=operations,
        elapsed_ns=elapsed,
        per_op=per_op,
    )
