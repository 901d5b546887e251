"""Hypothesis stateful machines: MGSP file + the database engine."""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core import MgspConfig, MgspFilesystem
from repro.core.verify import verify_file
from repro.db import Database
from repro.fs import Ext4Dax

CAP = 256 * 1024


class MgspFileMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of writes/reads/txns vs a flat model."""

    @initialize()
    def setup(self):
        self.fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=16))
        self.handle = self.fs.create("m", capacity=CAP)
        self.model = bytearray(CAP)
        self.size = 0
        self.ops = 0

    @rule(off=st.integers(0, CAP - 1), length=st.integers(1, 30_000), fill=st.integers(1, 255))
    def write(self, off, length, fill):
        length = min(length, CAP - off)
        payload = bytes([fill]) * length
        self.handle.write(off, payload)
        self.model[off : off + length] = payload
        self.size = max(self.size, off + length)
        self.ops += 1

    @rule(off=st.integers(0, CAP - 1), length=st.integers(0, 10_000))
    def read_matches_model(self, off, length):
        expected = bytes(self.model[off : min(off + length, self.size)]) if off < self.size else b""
        assert self.handle.read(off, length) == expected

    @rule(
        pairs=st.lists(
            st.tuples(st.integers(0, CAP - 4096), st.integers(1, 4000), st.integers(1, 255)),
            min_size=1,
            max_size=4,
        ),
        commit=st.booleans(),
    )
    def transaction(self, pairs, commit):
        txn = self.fs.begin_transaction(self.handle)
        staged = bytearray(self.model)
        staged_size = self.size
        for off, length, fill in pairs:
            payload = bytes([fill]) * length
            txn.write(off, payload)
            staged[off : off + length] = payload
            staged_size = max(staged_size, off + length)
        if commit:
            txn.commit()
            self.model = staged
            self.size = staged_size
        else:
            txn.rollback()
        self.ops += 1

    @rule()
    def close_reopen(self):
        self.handle.close()
        self.handle = self.fs.open("m")

    @precondition(lambda self: self.ops and self.ops % 5 == 0)
    @invariant()
    def structure_verifies(self):
        report = verify_file(self.handle)
        assert report.ok, report.errors

    @invariant()
    def size_matches(self):
        assert self.handle.size == self.size


TestMgspFileMachine = MgspFileMachine.TestCase
TestMgspFileMachine.settings = settings(
    max_examples=15,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class DatabaseMachine(RuleBasedStateMachine):
    """Random table mutations vs a dict model, across reopen."""

    @initialize(journal=st.sampled_from(["wal", "off"]))
    def setup(self, journal):
        self.fs = Ext4Dax(device_size=96 << 20)
        self.journal = journal
        self.db = Database(self.fs, journal_mode=journal)
        self.table = self.db.create_table("t")
        self.model = {}

    @rule(key=st.integers(0, 300), value=st.text(max_size=40))
    def upsert(self, key, value):
        self.table.insert((key,), (value,))
        self.model[key] = value

    @rule(key=st.integers(0, 300))
    def delete(self, key):
        existed = self.table.delete((key,))
        assert existed == (key in self.model)
        self.model.pop(key, None)

    @rule(key=st.integers(0, 300))
    def get(self, key):
        row = self.table.get((key,))
        if key in self.model:
            assert row == (self.model[key],)
        else:
            assert row is None

    @rule(
        items=st.lists(st.tuples(st.integers(0, 300), st.text(max_size=20)), min_size=1, max_size=5),
        commit=st.booleans(),
    )
    def txn(self, items, commit):
        self.db.begin()
        for key, value in items:
            self.table.insert((key,), (value,))
        if commit:
            self.db.commit()
            for key, value in items:
                self.model[key] = value
        else:
            self.db.rollback()

    @rule()
    def reopen(self):
        self.db.close()
        self.db = Database(self.fs, journal_mode=self.journal)
        self.table = self.db.table("t")

    @invariant()
    def count_matches(self):
        assert self.table.count() == len(self.model)


TestDatabaseMachine = DatabaseMachine.TestCase
TestDatabaseMachine.settings = settings(
    max_examples=10,
    stateful_step_count=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
