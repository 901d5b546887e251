"""Property tests for the invariant miner (ISSUE 6 satellite).

Synthetic :class:`PersistEvent` streams with *planted* invariants and
violations: the miner must rediscover exactly what was planted, never
report a violated pattern as support-clean ("no false confirmed"), and
be a pure function of its input (byte-determinism of the CLI report
rests on this).
"""

from __future__ import annotations

import random

import pytest

from repro.infer.events import FENCE, FLUSH, STORE, PersistEvent, Trace
from repro.infer.miner import FENCED_BY_OP_END, NEVER_TORN, PERSIST_BEFORE, mine
from repro.obs.flight import words_of

A, B, C = 0x1000, 0x8000, 0x20000  # one address block per region


class Stream:
    """Builder for synthetic traces with collector-identical indexing."""

    def __init__(self):
        self.events = []
        self.index = 0
        self.op = None
        self.op_seq = -1

    def begin(self, name="op"):
        self.op_seq += 1
        self.op = name
        return self

    def end(self):
        self.op = None
        return self

    def store(self, offset, length, region, kind="store"):
        self.events.append(
            PersistEvent(
                self.index, STORE, offset, length, kind, region, self.op, self.op_seq
            )
        )
        self.index += 1
        return self

    def flush(self, offset, length, region=""):
        self.events.append(
            PersistEvent(
                self.index, FLUSH, offset, length, "", region, self.op, self.op_seq
            )
        )
        self.index += 1
        return self

    def fence(self):
        self.events.append(
            PersistEvent(self.index, FENCE, 0, 0, "", "", self.op, self.op_seq)
        )
        self.index += 1
        return self

    def trace(self):
        return Trace("synthetic", "sync", list(self.events), self.op_seq + 1, False)


def by_key(candidates):
    return {c.key: c for c in candidates}


def committed_op(s, n=1, base_a=A, base_b=B):
    """n ops with the planted discipline: data (a) persisted, fence,
    then commit (b) — persist-before(a -> b) at durability=durable."""
    for i in range(n):
        s.begin("put")
        s.store(base_a + 64 * i, 8, "data", kind="nt")
        s.fence()
        s.store(base_b + 8 * i, 8, "commit", kind="atomic")
        s.flush(base_b + 8 * i, 8, "commit")
        s.fence()
        s.end()


class TestPlantedInvariants:
    def test_persist_before_rediscovered_durable(self):
        s = Stream()
        committed_op(s, n=6)
        c = by_key(mine([s.trace()]))[(PERSIST_BEFORE, "data", "commit")]
        assert c.support == 6
        assert c.violations == 0
        assert c.durability == "durable"  # the fence enforces the order

    def test_reverse_direction_is_refuted_per_op(self):
        s = Stream()
        committed_op(s, n=6)
        r = by_key(mine([s.trace()]))[(PERSIST_BEFORE, "commit", "data")]
        assert r.violations == 6
        assert r.mined_status(min_support=1) == "violated-in-trace"

    def test_unfenced_order_mined_as_dirty(self):
        """Stores ordered in the trace but with no fence between them:
        the candidate survives, but at durability=dirty — the falsifier's
        cue that a crash image can reorder them."""
        s = Stream()
        for i in range(4):
            s.begin("put")
            s.store(A + 64 * i, 8, "data")  # cached, never flushed
            s.store(B + 8 * i, 8, "commit", kind="nt")
            s.fence()
            s.end()
        c = by_key(mine([s.trace()]))[(PERSIST_BEFORE, "data", "commit")]
        assert c.violations == 0
        assert c.durability == "dirty"
        # the mid-op fence made commit durable while data stayed dirty:
        # the witness must carry that post-fence kill point
        assert c.witness["post_fence_index"] is not None
        assert c.witness["a_live_post_fence"] == words_of(A, 8)

    def test_fenced_by_op_end_support_and_violation(self):
        s = Stream()
        committed_op(s, n=3)  # every word durable at op return
        s.begin("leak").store(C, 8, "meta").end()  # dirty at op return
        got = by_key(mine([s.trace()]))
        clean = got[(FENCED_BY_OP_END, "data", "")]
        assert clean.support == 3 and clean.violations == 0
        leaky = got[(FENCED_BY_OP_END, "meta", "")]
        assert leaky.violations == 1
        # end_index = index right after the op's last event
        assert leaky.violation_witness["end_index"] == s.events[-1].index + 1
        assert leaky.violation_witness["level"] == "dirty"

    def test_never_torn_three_levels(self):
        s = Stream()
        s.begin("op")
        s.store(A, 8, "narrow", kind="atomic")  # single word: durable
        s.store(B, 32, "wide_nt", kind="nt")  # tear window until fence
        s.store(C, 32, "wide_plain")  # tearable any time
        s.fence()
        s.end()
        got = by_key(mine([s.trace()]))
        assert got[(NEVER_TORN, "narrow", "")].durability == "durable"
        assert got[(NEVER_TORN, "narrow", "")].violations == 0
        pend = got[(NEVER_TORN, "wide_nt", "")]
        assert pend.violations == 0 and pend.durability == "pending"
        assert pend.witness["words"] == words_of(B, 32)
        torn = got[(NEVER_TORN, "wide_plain", "")]
        assert torn.violations == 1
        assert torn.violation_witness["store_kind"] == "store"


class TestPlantedViolations:
    def test_one_misordered_op_kills_the_candidate(self):
        """5 clean ops + 1 op storing commit first: persist-before(data
        -> commit) must be violated-in-trace, never active."""
        s = Stream()
        committed_op(s, n=5)
        s.begin("put")
        s.store(B + 0x100, 8, "commit", kind="atomic")
        s.flush(B + 0x100, 8, "commit")
        s.fence()
        s.store(A + 0x100, 8, "data", kind="nt")
        s.fence()
        s.end()
        c = by_key(mine([s.trace()]))[(PERSIST_BEFORE, "data", "commit")]
        assert c.support == 5 and c.violations == 1
        assert c.mined_status(min_support=1) == "violated-in-trace"

    def test_variant_run_violation_propagates(self):
        """A pattern that holds in the canonical run but breaks in a
        variant run must not survive the merge."""
        clean, dirty = Stream(), Stream()
        committed_op(clean, n=4)
        committed_op(dirty, n=2)
        dirty.begin("put")
        dirty.store(B + 0x200, 8, "commit", kind="atomic")
        dirty.fence()
        dirty.store(A + 0x200, 8, "data", kind="nt")
        dirty.fence()
        dirty.end()
        c = by_key(mine([clean.trace(), dirty.trace()]))[
            (PERSIST_BEFORE, "data", "commit")
        ]
        assert c.violations == 1
        assert c.mined_status(min_support=1) == "violated-in-trace"

    def test_pattern_absent_from_one_run_is_below_support(self):
        """Cross-run intersection: presence in every run is required, so
        a seed-specific pattern can never reach falsification."""
        with_pair, without = Stream(), Stream()
        committed_op(with_pair, n=8)
        without.begin("noop").store(C, 8, "meta", kind="nt").fence().end()
        c = by_key(mine([with_pair.trace(), without.trace()]))[
            (PERSIST_BEFORE, "data", "commit")
        ]
        assert c.runs_present == 1 and c.runs_total == 2
        assert c.mined_status(min_support=1) == "below-support"

    def test_min_support_threshold(self):
        s = Stream()
        committed_op(s, n=3)
        c = by_key(mine([s.trace()]))[(PERSIST_BEFORE, "data", "commit")]
        assert c.mined_status(min_support=5) == "below-support"
        assert c.mined_status(min_support=3) == "active"


class TestScopeRules:
    def test_stores_outside_ops_are_ignored(self):
        s = Stream()
        s.store(A, 32, "data")  # op=None: setup-style raw store
        s.fence()
        assert mine([s.trace()]) == []

    def test_unmapped_regions_are_skipped(self):
        s = Stream()
        s.begin("op").store(A, 32, "unmapped").fence().end()
        assert mine([s.trace()]) == []

    def test_flush_makes_dirty_pending_not_durable(self):
        """flush without fence must not count as persisted: the pair is
        pending, not durable."""
        s = Stream()
        s.begin("put")
        s.store(A, 8, "data")
        s.flush(A, 8, "data")
        s.store(B, 8, "commit", kind="atomic")
        s.fence()
        s.end()
        c = by_key(mine([s.trace()]))[(PERSIST_BEFORE, "data", "commit")]
        assert c.durability == "pending"


class TestFuzz:
    def _random_trace(self, seed):
        rng = random.Random(seed)
        regions = [("data", A), ("commit", B), ("meta", C)]
        s = Stream()
        for _ in range(rng.randrange(3, 12)):
            s.begin(rng.choice(["put", "del", "sync"]))
            for _ in range(rng.randrange(1, 5)):
                name, base = rng.choice(regions)
                off = base + 8 * rng.randrange(64)
                kind = rng.choice(["store", "nt", "atomic"])
                length = rng.choice([8, 8, 16, 32]) if kind != "atomic" else 8
                s.store(off, length, name, kind=kind)
                if rng.random() < 0.5:
                    s.flush(off, length, name)
                if rng.random() < 0.4:
                    s.fence()
            if rng.random() < 0.7:
                s.fence()
            s.end()
        return s.trace()

    @pytest.mark.parametrize("seed", range(8))
    def test_deterministic_and_sorted(self, seed):
        trace = self._random_trace(seed)
        first = mine([trace])
        second = mine([trace])
        assert first == second
        assert [c.key for c in first] == sorted(c.key for c in first)

    @pytest.mark.parametrize("seed", range(8))
    def test_direction_accounting_balances(self, seed):
        """Every persist-before observation supports (A,B) and refutes
        (B,A): the two tallies must balance exactly — a broken balance
        would let a violated direction masquerade as confirmed."""
        got = by_key(mine([self._random_trace(seed)]))
        for (family, a, b), c in got.items():
            if family != PERSIST_BEFORE:
                continue
            assert c.support == got[(PERSIST_BEFORE, b, a)].violations

    @pytest.mark.parametrize("seed", range(8))
    def test_no_false_confirmables(self, seed):
        """Any plain store wider than 8B must leave its region's
        never-torn candidate violated — no fuzz stream may launder a
        tearable store into an active tear-freedom claim."""
        trace = self._random_trace(seed)
        wide_plain = {
            e.region
            for e in trace.events
            if e.kind == STORE and e.store_kind == "store" and e.length > 8
        }
        got = by_key(mine([trace]))
        for region in wide_plain:
            assert got[(NEVER_TORN, region, "")].violations > 0
