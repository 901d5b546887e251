"""Targeted falsification of mined invariants via crashsweep.

Each surviving candidate maps to the *exact* crash points that could
violate it (witness indices from the canonical trace — index parity
with ``CrashPlan`` makes these literal ``crash_after`` values), and two
kinds of evidence are gathered there:

1. a **policy pass** — one ``crashsweep.sweep_unit`` over the union of
   target points with the standard DROP_ALL/KEEP_ALL/RANDOM policies.
   Any failure is a true bug with a ready-made CLI reproducer line;
2. a **surgical probe** per candidate — replay to the target point and
   compose ``crash_image(persist_words=...)`` keeping everything except
   the candidate's "must already be durable" words (persist-before: B
   survives, A dropped; never-torn: half of one wide store dropped;
   fenced-by-op-end: the op's words dropped). If those words are no
   longer persist-candidates the violating image is *unreachable* and
   the invariant is empirically confirmed; if the image is reachable,
   recovery's verdict splits true bug from benign reordering.

Benign reorderings — reachable violation, oracle holds — refute the
invariant as a *requirement* while proving the implementation tolerates
it. Known-benign reorderings are retired via :data:`RETIREMENTS` so
``--strict`` runs stay green without hiding novel findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.nvm.crash import CrashPlan

from repro.crashsweep.sweep import minimize_failure, sweep_unit
from repro.crashsweep.workloads import get_workload

from repro.infer.miner import (
    FENCED_BY_OP_END,
    NEVER_TORN,
    PERSIST_BEFORE,
    Candidate,
)

#: statuses, roughly strongest-claim first
CONFIRMED = "confirmed"
TRUE_BUG = "true-bug"
REFUTED_BENIGN = "refuted-benign"
RETIRED_BENIGN = "retired-benign"
VIOLATED_IN_TRACE = "violated-in-trace"
BELOW_SUPPORT = "below-support"
UNPROBED = "unprobed"

#: (fs alias, family, region a, region b) -> documented reason why the
#: refuted ordering is benign. Every entry must correspond to a
#: reproducible refuted-benign finding; ``--strict`` fails on any
#: *unretired* benign so new reorderings surface instead of rotting.
RETIREMENTS: Dict[Tuple[str, str, str, str], str] = {
    # -- MGSP (sync): every entry reproduced on fio/txn/ycsb traces -------
    ("mgsp", NEVER_TORN, "metalog", ""): (
        "metalog entries are checksummed; a torn entry is detected and "
        "discarded by recovery, so the pre-fence tear window is harmless"
    ),
    ("mgsp", NEVER_TORN, "log_area", ""): (
        "log-area data is referenced only by a later metalog commit; a "
        "tear before the commit fence rolls back with the op"
    ),
    ("mgsp", NEVER_TORN, "data_area", ""): (
        "data-area write-back is replayed from the persistent log on "
        "recovery; a torn write-back is overwritten by the replay"
    ),
    ("mgsp", PERSIST_BEFORE, "node_tables", "log_area"): (
        "node-table refresh words may reorder after log data; recovery "
        "rebuilds them from the metalog, only the commit words bind"
    ),
    ("mgsp", PERSIST_BEFORE, "node_tables", "data_area"): (
        "node-table refresh words may trail data write-back; recovery "
        "rebuilds them from the metalog before the tables are read"
    ),
    ("mgsp", PERSIST_BEFORE, "node_tables", "superblock"): (
        "superblock epoch updates do not depend on in-flight node-table "
        "refresh words; the metalog rebuild restores the tables"
    ),
    # -- MGSP (async write-back): same recovery arguments as sync ---------
    ("mgsp-async", NEVER_TORN, "metalog", ""): "same checksum guard as sync mode",
    ("mgsp-async", NEVER_TORN, "log_area", ""): "same rollback-with-op argument as sync mode",
    ("mgsp-async", NEVER_TORN, "data_area", ""): "same log-replay argument as sync mode",
    ("mgsp-async", PERSIST_BEFORE, "node_tables", "log_area"): (
        "same metalog-rebuild argument as sync mode"
    ),
    ("mgsp-async", PERSIST_BEFORE, "node_tables", "data_area"): (
        "same metalog-rebuild argument as sync mode"
    ),
    ("mgsp-async", PERSIST_BEFORE, "node_tables", "superblock"): (
        "same metalog-rebuild argument as sync mode"
    ),
    ("mgsp-async", PERSIST_BEFORE, "data_area", "log_area"): (
        "async write-back lets in-place data trail the log append; the "
        "log is the durability source, write-back replays on recovery"
    ),
    # -- Libnvmmio --------------------------------------------------------
    ("libnvmmio", PERSIST_BEFORE, "log_area", "journal"): (
        "log data and its per-entry meta record share one op-end fence, "
        "so meta-before-data is reachable; recovery replays nothing from "
        "uncommitted epochs, so the byte-wise oracle holds either way"
    ),
    ("libnvmmio", NEVER_TORN, "log_area", ""): (
        "log chunks are torn only inside an unsynced epoch; fsync's "
        "checkpoint fence is the only durability promise libnvmmio makes"
    ),
    ("libnvmmio", NEVER_TORN, "data_area", ""): (
        "checkpoint write-back is byte-idempotent: every torn byte is "
        "either the old or the new value, both legal under the byte-wise "
        "fsync contract"
    ),
    # -- NOVA -------------------------------------------------------------
    ("nova", NEVER_TORN, "journal", ""): (
        "journal entries carry a crc32; recovery discards torn entries "
        "and the pre-entry data fence keeps old state consistent"
    ),
    ("nova", NEVER_TORN, "data_area", ""): (
        "CoW pages are unreachable until their journal entry commits; a "
        "tear before the data fence tears an orphan"
    ),
    ("nova", PERSIST_BEFORE, "node_tables", "superblock"): (
        "pointer swings and the inode size update share the post-commit "
        "fence; the still-valid journal entry replays both on recovery"
    ),
    # -- durable MPSC queue ----------------------------------------------
    ("pqueue", NEVER_TORN, "qslot_body", ""): (
        "slot bodies are guarded by the commit word's crc32; a torn "
        "body fails validation and the slot reads as unpublished"
    ),
    ("pqueue-async", NEVER_TORN, "qslot_body", ""): (
        "same crc guard as sync mode"
    ),
}


@dataclass
class Verdict:
    """One candidate's post-falsification classification."""

    candidate: Candidate
    status: str
    reason: str
    target_points: List[int] = field(default_factory=list)
    probes: int = 0
    reproducer: Optional[str] = None
    minimized_words: Optional[List[int]] = None
    retirement: Optional[str] = None
    #: the phase-1 crashsweep Failure behind a policy-pass TRUE_BUG
    #: (None for surgical bugs) — lets the CLI capture a black-box
    #: bundle with the exact policy/crash-index pair, not a re-parse
    #: of the reproducer string
    policy_failure: Optional[object] = None


def _probe_plan(candidate: Candidate) -> Optional[Tuple[int, List[int]]]:
    """(crash_after, words-to-drop) for one candidate's surgical probe,
    or None when the family is structurally confirmed (nothing to drop).
    """
    w = candidate.witness
    if w is None:
        return None
    if candidate.family == PERSIST_BEFORE:
        if w.get("post_fence_index") is not None:
            return (w["post_fence_index"], list(w["a_live_post_fence"]))
        return (w["b_index"] + 1, list(w["a_live_words"]))
    if candidate.family == NEVER_TORN:
        words = w["words"]
        # tear: keep the first half of the wide store, drop the rest
        return (w["store_index"] + 1, list(words[len(words) // 2 :]))
    if candidate.family == FENCED_BY_OP_END:
        return (w["end_index"], list(w["r_words"]))
    return None


def falsify(
    candidates: List[Candidate],
    workload_name: str,
    config_name: str,
    fs_alias: str,
    budget: int = 200,
    seed: int = 0,
    min_support: int = 5,
) -> List[Verdict]:
    """Classify every candidate; deterministic for fixed inputs."""
    workload = get_workload(workload_name)
    verdicts: List[Verdict] = []
    active: List[Tuple[Candidate, Optional[Tuple[int, List[int]]]]] = []

    for candidate in candidates:  # already key-sorted by the miner
        status = candidate.mined_status(min_support)
        if status == VIOLATED_IN_TRACE:
            verdicts.append(
                Verdict(
                    candidate,
                    VIOLATED_IN_TRACE,
                    "refuted by the passing traces themselves "
                    f"({candidate.violations} counterexamples)",
                )
            )
        elif status == BELOW_SUPPORT:
            verdicts.append(
                Verdict(
                    candidate,
                    BELOW_SUPPORT,
                    f"support {candidate.support} in "
                    f"{candidate.runs_present}/{candidate.runs_total} runs "
                    f"(min {min_support})",
                )
            )
        else:
            active.append((candidate, _probe_plan(candidate)))

    # -- phase 1: standard-policy pass over the union of target points ----
    point_map: Dict[int, List[int]] = {}
    for i, (candidate, plan) in enumerate(active):
        if plan is not None:
            point_map.setdefault(plan[0], []).append(i)
    points = sorted(point_map)
    if len(points) > max(1, budget // 2):
        points = points[: max(1, budget // 2)]
    points_set = set(points)
    policy_failures: Dict[int, object] = {}
    if points:
        unit = sweep_unit(
            workload_name, config_name, points=points, seed=seed, minimize=True
        )
        for failure in unit.failures:
            policy_failures.setdefault(failure.crash_after, failure)

    # -- phase 2: per-candidate surgical probes ---------------------------
    probes_left = max(0, budget - len(points))
    for candidate, plan in active:
        if plan is None:
            verdicts.append(
                Verdict(
                    candidate,
                    CONFIRMED,
                    "structurally confirmed: no crash image can violate it "
                    "(every relevant store is fenced or single-word)",
                )
            )
            continue
        point, drop_words = plan
        verdict = Verdict(candidate, UNPROBED, "probe budget exhausted", [point])

        failure = policy_failures.get(point) if point in points_set else None
        if failure is not None:
            verdict.status = TRUE_BUG
            verdict.reason = (
                f"standard {failure.policy.value} policy fails at the "
                f"candidate's target point: {failure.violations[0]}"
            )
            verdict.reproducer = failure.reproducer
            verdict.minimized_words = failure.minimized_words
            verdict.policy_failure = failure
            verdicts.append(verdict)
            continue

        if probes_left <= 0:
            verdicts.append(verdict)
            continue
        probes_left -= 1
        verdict.probes = 1

        outcome = workload.run(config_name, CrashPlan(point))
        if not outcome.crashed:
            verdict.status = CONFIRMED
            verdict.reason = "target point lies beyond the event stream"
            verdicts.append(verdict)
            continue
        device = outcome.fs.device
        reachable = set(device.unfenced_words())
        drop = sorted(set(drop_words) & reachable)
        if not drop:
            verdict.status = CONFIRMED
            verdict.reason = (
                "violating image unreachable: the words the invariant "
                "protects are already durable at the crash point"
            )
            verdicts.append(verdict)
            continue
        keep = sorted(reachable - set(drop))
        image = device.crash_image(persist_words=keep)
        violations = workload.check(image, config_name, outcome.oracles)
        if violations:
            verdict.status = TRUE_BUG
            verdict.reason = (
                f"surgical violation (dropped {len(drop)} words) breaks "
                f"recovery: {violations[0]}"
            )
            verdict.minimized_words = minimize_failure(
                device,
                config_name,
                outcome.oracles,
                keep,
                checker=workload.check,
            )
            # Surgical images are not expressible as a crashsweep policy
            # line; the CLI layer emits a `python -m repro.infer`
            # reproducer from target_points + minimized_words instead.
        else:
            key = (fs_alias, candidate.family, candidate.a, candidate.b)
            retirement = RETIREMENTS.get(key)
            if retirement is not None:
                verdict.status = RETIRED_BENIGN
                verdict.retirement = retirement
                verdict.reason = (
                    "reordering reachable but tolerated; retired: " + retirement
                )
            else:
                verdict.status = REFUTED_BENIGN
                verdict.reason = (
                    f"reordering reachable (dropped {len(drop)} words) but "
                    "recovery holds — not a required invariant"
                )
        verdicts.append(verdict)

    order = {c.key: i for i, c in enumerate(candidates)}
    verdicts.sort(key=lambda v: order[v.candidate.key])
    return verdicts
