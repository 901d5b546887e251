"""Differential test: hand-written analyzer rules vs. inference (ISSUE 6).

``repro.analysis`` ships three hand-coded ordering rules for MGSP
(commit-before-data, torn-multiword, unfenced-at-boundary). Inference
knows none of them — it mines whatever the traces exhibit. On the same
sync-MGSP fio replay the two must agree:

- the analyzer finds no ``commit-before-data`` error, and inference
  *confirms* the discipline behind the rule as fence-enforced
  persist-before(data/log -> metalog) invariants;
- the analyzer finds no ``torn-multiword`` error, and inference mines
  no in-trace-torn region — while going further: it grades each
  region's residual pre-fence tear window and falsifies it;
- the analyzer *exempts* MGSP's deliberately-unfenced metalog retire
  from ``unfenced-at-boundary``; inference, with no baked-in exemption,
  rediscovers exactly that one region as the sole fenced-by-op-end
  violation.

A rule the analyzer enforces that inference failed to rediscover (or
vice versa) fails here — the two oracles keep each other honest.
"""

from __future__ import annotations

import pytest

from repro.analysis.harness import run_workload
from repro.crashsweep.workloads import resolve

from repro.infer.falsify import falsify
from repro.infer.miner import NEVER_TORN, PERSIST_BEFORE, mine
from repro.infer.subjects import collect_traces

MGSP_REGIONS = {"superblock", "node_tables", "metalog", "log_area", "data_area"}


@pytest.fixture(scope="module")
def analyzer_report():
    return run_workload("fio", "mgsp-sync")


@pytest.fixture(scope="module")
def inference():
    """(candidate, verdict-status) by key for the same subject."""
    workload_name, config_name = resolve("mgsp", "fio")
    traces = collect_traces(workload_name, config_name, runs=3)
    candidates = mine(traces)
    verdicts = falsify(
        candidates, workload_name, config_name, "mgsp", budget=120, seed=7
    )
    return {v.candidate.key: v for v in verdicts}


class TestCommitBeforeData:
    def test_analyzer_is_clean(self, analyzer_report):
        assert analyzer_report.parity_ok
        assert not [f for f in analyzer_report.errors if f.rule == "commit-before-data"]

    def test_inference_rediscovers_the_rule(self, inference):
        """The rule's contract — guarded data durable before the commit
        entry — is mined as *confirmed, fence-enforced* orderings into
        the metalog from both data paths."""
        for a in ("data_area", "log_area"):
            v = inference[(PERSIST_BEFORE, a, "metalog")]
            assert v.status == "confirmed", (a, v.reason)
            assert v.candidate.durability == "durable"

    def test_no_guarded_ordering_into_metalog_is_refuted(self, inference):
        """Agreement in the other direction: every region the commit
        entry guards (data, log, node tables) reaches the metalog only
        through a confirmed ordering — none is violated or merely-benign.
        (Reverse-direction candidates like superblock -> metalog are
        legitimately trace-refuted; the rule never demanded them.)"""
        for a in ("data_area", "log_area", "node_tables"):
            v = inference[(PERSIST_BEFORE, a, "metalog")]
            assert v.status in ("confirmed", "below-support"), (a, v.status)


class TestTornMultiword:
    def test_analyzer_is_clean(self, analyzer_report):
        assert not [f for f in analyzer_report.errors if f.rule == "torn-multiword"]

    def test_inference_mines_no_in_trace_tear(self, inference):
        torn = [
            key
            for (key, v) in inference.items()
            if key[0] == NEVER_TORN and v.candidate.violations > 0
        ]
        assert torn == []

    def test_inference_grades_the_residual_windows(self, inference):
        """Beyond the analyzer: single-word regions come out structurally
        durable, wide-nt regions carry a pre-fence window that
        falsification proves recovery tolerates (crc/rollback guards)."""
        for region in ("node_tables", "superblock"):
            v = inference[(NEVER_TORN, region, "")]
            assert v.status == "confirmed"
            assert v.candidate.durability == "durable"
        for region in ("metalog", "log_area", "data_area"):
            v = inference[(NEVER_TORN, region, "")]
            assert v.status == "retired-benign"
            assert v.candidate.durability == "pending"


class TestUnfencedAtBoundary:
    def test_analyzer_exempts_the_metalog_retire(self, analyzer_report):
        assert not [
            f for f in analyzer_report.errors if f.rule == "unfenced-at-boundary"
        ]

    def test_inference_rediscovers_the_exemption_site(self, inference):
        """The analyzer's hand-coded metalog exemption is exactly the one
        region inference flags as violating fenced-by-op-end — same
        knowledge, learned from the trace instead of written down."""
        violated = [
            key[1]
            for (key, v) in inference.items()
            if key[0] == "fenced-by-op-end" and v.status == "violated-in-trace"
        ]
        assert violated == ["metalog"]
        # the retire is atomic+flushed but unfenced: flushed-not-fenced
        witness = inference[("fenced-by-op-end", "metalog", "")].candidate.violation_witness
        assert witness is not None and witness["level"] == "pending"

    def test_all_other_regions_fence_by_op_end(self, inference):
        for region in MGSP_REGIONS - {"metalog"}:
            v = inference[("fenced-by-op-end", region, "")]
            assert v.status == "confirmed", (region, v.status)
