"""Likely-invariant mining over persistence-event traces (WITCHER-style).

The miner replays each trace's durability offline through the shared
:class:`repro.obs.flight.WordDurability` — per 8-byte word, ``dirty``
(cached store, unflushed: evictable any time) → ``pending`` (flushed,
or written non-temporally, but unfenced: persists iff the crash keeps
it) → durable (fenced) — and emits *candidate invariants* in three
families:

``persist-before(A → B)``
    Within every operation that stores to both regions, A's first store
    precedes B's first store. The candidate's ``durability`` records the
    weakest state A's words were in at B's first store across all ops:
    ``durable`` means the ordering is enforced by a fence (no crash can
    reorder it), ``pending``/``dirty`` mean a crash image *can* persist
    B without A — exactly what the falsifier then constructs.

``never-torn(R)``
    No store to R can persist partially. Violated in-trace by plain
    cached stores wider than the 8-byte atomic unit; weakened to
    ``pending`` by wide non-temporal stores (torn iff the crash lands in
    their pre-fence window); structurally ``durable`` when every store
    is single-word.

``fenced-by-op-end(R)``
    Every word stored to R inside an operation is durable when the
    operation returns (the "durable at op return" contract). Ops that
    leave dirty or pending words violate it in-trace.

Support counting: a candidate's ``support`` sums the per-op (or
per-store) observations across *all* runs, and ``runs_present`` counts
the runs that exhibited it at least once. An invariant survives to
falsification only with zero in-trace violations, support ≥ the
min-support threshold, and presence in every run — the cross-run
intersection prunes patterns specific to one seed's op stream.

Witnesses are taken from the first (canonical) run only: the falsifier
re-executes that exact workload, so witness event indices are crashsweep
``crash_after`` indices into the replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.infer.events import FENCE, FLUSH, STORE, Trace
from repro.obs.flight import WordDurability, words_of

PERSIST_BEFORE = "persist-before"
NEVER_TORN = "never-torn"
FENCED_BY_OP_END = "fenced-by-op-end"

#: weakest-first ranking of durability levels
_LEVELS = {"dirty": 0, "pending": 1, "durable": 2}

#: regions that are not protocol state (unclassified scratch space)
_SKIP_REGIONS = frozenset({"unmapped", ""})


def _weaker(a: str, b: str) -> str:
    return a if _LEVELS[a] <= _LEVELS[b] else b


def level_of(durability: WordDurability, words) -> str:
    """The weakest level among *words* (a word not in the lattice is
    durable)."""
    level = "durable"
    for w in words:
        s = durability.state.get(w)
        if s is not None:
            level = _weaker(level, s)
    return level


def live_subset(durability: WordDurability, words) -> List[int]:
    """The not-yet-durable words among *words*, sorted."""
    return sorted(w for w in words if w in durability.state)


@dataclass
class Candidate:
    """One mined candidate invariant (or in-trace refutation)."""

    family: str
    a: str  # region A (persist-before) / region R (others)
    b: str = ""  # region B (persist-before only)
    support: int = 0
    violations: int = 0
    durability: str = "durable"
    runs_present: int = 0
    runs_total: int = 0
    #: canonical-run witness of the invariant holding (falsification target)
    witness: Optional[dict] = None
    #: canonical-run witness of an in-trace violation
    violation_witness: Optional[dict] = None

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.family, self.a, self.b)

    def describe(self) -> str:
        if self.family == PERSIST_BEFORE:
            return f"{self.a} persists before {self.b} within an op"
        if self.family == NEVER_TORN:
            return f"stores to {self.a} are never observed torn"
        return f"{self.a} stores are durable at op return"

    def mined_status(self, min_support: int) -> str:
        if self.violations:
            return "violated-in-trace"
        if self.support < min_support or self.runs_present < self.runs_total:
            return "below-support"
        return "active"


class _OpScope:
    """Per-operation accumulation for one region."""

    __slots__ = ("first_index", "first_words", "words")

    def __init__(self, first_index: int, first_words: List[int]) -> None:
        self.first_index = first_index
        self.first_words = first_words
        self.words = set(first_words)


def _mine_run(trace: Trace, canonical: bool) -> Dict[Tuple[str, str, str], Candidate]:
    """Mine one run. Witnesses are recorded only on the canonical run."""
    durability = WordDurability()
    found: Dict[Tuple[str, str, str], Candidate] = {}

    def cand(family: str, a: str, b: str = "") -> Candidate:
        key = (family, a, b)
        if key not in found:
            found[key] = Candidate(family=family, a=a, b=b)
        return found[key]

    op_regions: Dict[str, _OpScope] = {}
    # (A, B) -> observation dict, keyed at B's first store
    op_pairs: Dict[Tuple[str, str], dict] = {}
    open_op: Optional[int] = None
    end_index = 0  # index right after the open op's latest event

    def close_op() -> None:
        """Fold the finished op's observations into candidates.

        Runs *before* the first post-op event touches durability, so the
        fenced-by-op-end judgement sees the exact at-return state.
        """
        for (a, b), obs in sorted(op_pairs.items()):
            b_event = obs["b_event"]
            c = cand(PERSIST_BEFORE, a, b)
            c.support += 1
            c.durability = _weaker(c.durability, obs["level"])
            # prefer a witness with a post-fence kill point (B durable,
            # A still dirty: DROP_ALL alone violates the ordering there)
            better = c.witness is None or (
                obs["post_fence_index"] is not None
                and c.witness.get("post_fence_index") is None
            )
            if canonical and better:
                c.witness = {
                    "op": b_event.op or "",
                    "op_seq": b_event.op_seq,
                    "b_index": b_event.index,
                    "b_words": words_of(b_event.offset, b_event.length),
                    "a_live_words": obs["a_live"],
                    "post_fence_index": obs["post_fence_index"],
                    "a_live_post_fence": obs["a_live_post_fence"],
                }
            # this op is a counterexample to the reverse direction
            r = cand(PERSIST_BEFORE, b, a)
            r.violations += 1
            if canonical and r.violation_witness is None:
                r.violation_witness = {
                    "op_seq": b_event.op_seq,
                    "observed_order": f"{a} stored before {b}",
                }
        for region, scope in sorted(op_regions.items()):
            c = cand(FENCED_BY_OP_END, region)
            live = live_subset(durability, scope.words)
            if live:
                c.violations += 1
                if canonical and c.violation_witness is None:
                    c.violation_witness = {
                        "end_index": end_index,
                        "live_words": live,
                        "level": level_of(durability, live),
                    }
            else:
                c.support += 1
                if canonical and c.witness is None:
                    c.witness = {
                        "end_index": end_index,
                        "r_words": sorted(scope.words),
                    }
        op_regions.clear()
        op_pairs.clear()

    for event in trace.events:
        if open_op is not None and (event.op is None or event.op_seq != open_op):
            close_op()
            open_op = None

        if event.kind == STORE:
            durability.store(event.offset, event.length, event.store_kind)
            region = event.region
            if region not in _SKIP_REGIONS and event.op is not None:
                w = words_of(event.offset, event.length)

                # never-torn
                t = cand(NEVER_TORN, region)
                t.support += 1
                if event.store_kind == "store" and event.length > 8:
                    t.violations += 1
                    if canonical and t.violation_witness is None:
                        t.violation_witness = {
                            "store_index": event.index,
                            "words": w,
                            "store_kind": event.store_kind,
                        }
                elif event.length > 8:  # wide nt store: pre-fence tear window
                    t.durability = _weaker(t.durability, "pending")
                    if canonical and t.witness is None:
                        t.witness = {"store_index": event.index, "words": w}

                # persist-before bookkeeping
                open_op = event.op_seq
                if region not in op_regions:
                    for other, scope in op_regions.items():
                        a_words = sorted(scope.words)
                        op_pairs[(other, region)] = {
                            "level": level_of(durability, a_words),
                            "a_live": live_subset(durability, a_words),
                            "a_words": a_words,
                            "b_event": event,
                            "post_fence_index": None,
                            "a_live_post_fence": None,
                        }
                    op_regions[region] = _OpScope(event.index, w)
                else:
                    op_regions[region].words.update(w)
        elif event.kind == FLUSH:
            durability.flush(event.offset, event.length)
        elif event.kind == FENCE:
            durability.fence()
            if open_op is not None:
                for obs in op_pairs.values():
                    if obs["post_fence_index"] is not None:
                        continue
                    b_event = obs["b_event"]
                    b_words = words_of(b_event.offset, b_event.length)
                    a_live = live_subset(durability, obs["a_words"])
                    if a_live and not live_subset(durability, b_words):
                        obs["post_fence_index"] = event.index + 1
                        obs["a_live_post_fence"] = a_live

        if open_op is not None:
            end_index = event.index + 1

    if open_op is not None:
        close_op()
    return found


def mine(traces: List[Trace]) -> List[Candidate]:
    """Mine candidates across runs; the first trace is canonical.

    Returns every candidate observed in the canonical run (including
    in-trace refutations — the differential tests rely on them), merged
    with the other runs' support/violation counts, sorted by key.
    """
    if not traces:
        return []
    merged = _mine_run(traces[0], canonical=True)
    for c in merged.values():
        c.runs_present = 1
        c.runs_total = len(traces)
    for trace in traces[1:]:
        for key, other in _mine_run(trace, canonical=False).items():
            c = merged.get(key)
            if c is None:
                continue  # variant-only pattern: no canonical witness
            c.support += other.support
            c.violations += other.violations
            c.durability = _weaker(c.durability, other.durability)
            c.runs_present += 1
    return [merged[key] for key in sorted(merged)]
