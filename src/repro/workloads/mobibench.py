"""Mobibench-style SQLite micro-transactions (Fig 11).

Mobibench drives SQLite with single-statement transactions: INSERT,
UPDATE, or DELETE on a simple table. Each statement is one transaction
(autocommit), which in WAL mode means one WAL append + fsync, and in
OFF mode one in-place page write + fsync — exactly the pattern whose
cost the underlying file system's consistency machinery dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.db import Database
from repro.fsapi.interface import FileSystem


@dataclass
class MobibenchResult:
    fs_name: str
    journal_mode: str
    mode: str
    transactions: int
    elapsed_ns: float

    @property
    def tx_per_sec(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.transactions / (self.elapsed_ns * 1e-9)


_PAYLOAD = "x" * 100  # Mobibench default record is ~100 bytes of text


def run_mobibench(
    fs: FileSystem,
    mode: str = "insert",  # insert | update | delete
    journal_mode: str = "wal",
    transactions: int = 300,
    seed: int = 7,
) -> MobibenchResult:
    if mode not in ("insert", "update", "delete"):
        raise ValueError(f"unknown mobibench mode {mode!r}")
    db = Database(fs, name="mobi.db", journal_mode=journal_mode)
    table = db.create_table("tbl")
    rng = random.Random(seed)

    # Setup rows for update/delete outside the measured window.
    prepopulate = transactions if mode in ("update", "delete") else 0
    for i in range(prepopulate):
        table.insert((i,), (i, _PAYLOAD))
    fs.take_traces()
    fs.take_bg_traces()

    # Measured window: one statement per transaction (autocommit).
    for i in range(transactions):
        if mode == "insert":
            table.insert((prepopulate + i,), (i, _PAYLOAD))
        elif mode == "update":
            victim = rng.randrange(prepopulate)
            table.update((victim,), (victim, _PAYLOAD + str(i)))
        else:
            table.delete((i,))
    traces = fs.take_traces()
    elapsed = sum(tr.duration_ns(fs.timing.lock_ns) for tr in traces)
    db.close()
    return MobibenchResult(
        fs_name=fs.name,
        journal_mode=journal_mode,
        mode=mode,
        transactions=transactions,
        elapsed_ns=elapsed,
    )
