"""YCSB core workloads (an extension beyond the paper's evaluation).

The six standard mixes over the embedded database, with a Zipfian
request distribution — useful for exploring MGSP's behaviour on
key-value traffic the paper did not cover:

====  ==========================  ==================
 A    update heavy                50% read 50% update
 B    read mostly                 95% read 5% update
 C    read only                   100% read
 D    read latest                 95% read 5% insert
 E    short ranges                95% scan 5% insert
 F    read-modify-write           50% read 50% RMW
====  ==========================  ==================
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.db import Database
from repro.fsapi.interface import FileSystem

WORKLOADS = ("A", "B", "C", "D", "E", "F")

_MIX = {
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "D": {"read": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
    "F": {"read": 0.5, "rmw": 0.5},
}


class ZipfGenerator:
    """Zipfian integers in [0, n) via inverse-CDF table lookup."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.rng = random.Random(seed)
        weights = [1.0 / math.pow(i + 1, theta) for i in range(n)]
        total = sum(weights)
        acc = 0.0
        self._cdf: List[float] = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def next(self) -> int:
        return bisect.bisect_left(self._cdf, self.rng.random())


@dataclass
class YcsbResult:
    fs_name: str
    workload: str
    journal_mode: str
    operations: int
    elapsed_ns: float
    per_op: Dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.operations / (self.elapsed_ns * 1e-9)


def run_ycsb(
    fs: FileSystem,
    workload: str = "A",
    journal_mode: str = "wal",
    records: int = 2000,
    operations: int = 300,
    value_size: int = 100,
    seed: int = 31,
    scan_length: int = 20,
) -> YcsbResult:
    workload = workload.upper()
    if workload not in _MIX:
        raise ValueError(f"unknown YCSB workload {workload!r}; choices {WORKLOADS}")
    db = Database(fs, name="ycsb.db", journal_mode=journal_mode)
    table = db.create_table("usertable")
    payload = "v" * value_size

    # Load phase (unmeasured).
    for key in range(records):
        table.insert((key,), (payload,))
    fs.take_traces()
    fs.take_bg_traces()

    zipf = ZipfGenerator(records, seed=seed)
    rng = random.Random(seed ^ 0xBEEF)
    mix = _MIX[workload]
    ops_sorted = sorted(mix.items())
    next_insert = records
    per_op: Dict[str, int] = {}

    for step in range(operations):
        pick = rng.random()
        acc = 0.0
        op = ops_sorted[-1][0]
        for name, weight in ops_sorted:
            acc += weight
            if pick < acc:
                op = name
                break
        per_op[op] = per_op.get(op, 0) + 1
        if op == "read":
            key = next_insert - 1 - zipf.next() if workload == "D" else zipf.next()
            table.get((max(0, key),))
        elif op == "update":
            table.update((zipf.next(),), (payload + str(step),))
        elif op == "insert":
            table.insert((next_insert,), (payload,))
            next_insert += 1
        elif op == "scan":
            start = zipf.next()
            for _ in table.scan_from((start,), scan_length):
                pass
        elif op == "rmw":
            key = zipf.next()
            row = table.get((key,))
            base = row[0] if row else payload
            table.update((key,), (base[:value_size],))

    traces = fs.take_traces()
    elapsed = sum(tr.duration_ns(fs.timing.lock_ns) for tr in traces)
    db.close()
    return YcsbResult(
        fs_name=fs.name,
        workload=workload,
        journal_mode=journal_mode,
        operations=operations,
        elapsed_ns=elapsed,
        per_op=per_op,
    )
