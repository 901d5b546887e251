"""End-to-end tests for the inference pipeline + CLI (ISSUE 6).

Acceptance-criteria pins: the planted-bug fixture exits nonzero with a
working crashsweep reproducer; MGSP-sync fio mines >= 3 confirmed
invariant families with zero true bugs (strict exit 0); and the JSON
report is byte-identical across two runs of the same command.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.infer.__main__ import main as infer_main
from repro.infer.falsify import RETIREMENTS
from repro.infer.subjects import collect_trace

from repro.crashsweep.__main__ import main as crashsweep_main
from repro.crashsweep.workloads import get_workload

FAST = ["--budget", "120", "--seed", "7"]


def run_cli(tmp_path, *args, name="report.json"):
    out = tmp_path / name
    code = infer_main([*args, "--out", str(out)])
    return code, json.loads(out.read_text())


class TestPlantedBug:
    @pytest.fixture(scope="class")
    def planted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("planted") / "report.json"
        code = infer_main(
            ["--workload", "toy", "--fs", "planted", *FAST, "--out", str(out)]
        )
        return code, json.loads(out.read_text())

    def test_exits_nonzero(self, planted):
        code, report = planted
        assert code == 1
        assert report["true_bugs"] >= 1

    def test_bug_is_the_planted_misordering(self, planted):
        _, report = planted
        bugs = [c for c in report["candidates"] if c["status"] == "true-bug"]
        assert [(b["family"], b["a"], b["b"]) for b in bugs] == [
            ("persist-before", "toy_data", "toy_commit")
        ]
        # unfenced ordering: a crash image can keep commit, drop data
        assert bugs[0]["durability"] == "dirty"

    def test_reproducer_replays_the_failure(self, planted, capsys):
        """The report's crashsweep line is a *working* reproducer: the
        minimized --at point fails under the named policy."""
        _, report = planted
        bug = next(c for c in report["candidates"] if c["status"] == "true-bug")
        line = bug["reproducer"]
        assert line.startswith("python -m repro.crashsweep ")
        argv = line.split()[3:]  # strip "python -m repro.crashsweep"
        assert crashsweep_main(argv) == 1
        assert "violation" in capsys.readouterr().out.lower()


class TestMgspAcceptance:
    @pytest.fixture(scope="class")
    def mgsp(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("mgsp") / "report.json"
        code = infer_main(
            ["--workload", "fio", "--fs", "mgsp", *FAST, "--strict", "--out", str(out)]
        )
        return code, json.loads(out.read_text())

    def test_strict_exit_zero(self, mgsp):
        code, report = mgsp
        assert code == 0
        assert report["true_bugs"] == 0
        assert report["unretired_benign"] == 0

    def test_three_confirmed_families(self, mgsp):
        _, report = mgsp
        assert len(report["confirmed_families"]) >= 3
        assert set(report["confirmed_families"]) >= {
            "persist-before",
            "never-torn",
            "fenced-by-op-end",
        }

    def test_commit_ordering_confirmed_durable(self, mgsp):
        """The log-data -> commit-record ordering must come out confirmed
        (it is MGSP's central correctness argument)."""
        _, report = mgsp
        entry = next(
            c
            for c in report["candidates"]
            if (c["family"], c["a"], c["b"]) == ("persist-before", "log_area", "metalog")
        )
        assert entry["status"] == "confirmed"
        assert entry["durability"] == "durable"

    def test_benigns_are_all_retired(self, mgsp):
        _, report = mgsp
        for c in report["candidates"]:
            if c["status"] == "retired-benign":
                key = ("mgsp", c["family"], c["a"], c["b"])
                assert key in RETIREMENTS
                assert c["retirement"] == RETIREMENTS[key]


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        args = ["--workload", "fio", "--fs", "mgsp", "--budget", "200", "--seed", "7"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert infer_main([*args, "--out", str(out1)]) == 0
        assert infer_main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_only_parameters(self, tmp_path):
        """A different sweep seed may pick different RANDOM images but the
        mined candidate set is seed-independent (mining sees passing runs
        only)."""
        _, rep_a = run_cli(
            tmp_path, "--workload", "fio", "--fs", "mgsp", "--budget", "120",
            "--seed", "7", name="a.json",
        )
        _, rep_b = run_cli(
            tmp_path, "--workload", "fio", "--fs", "mgsp", "--budget", "120",
            "--seed", "11", name="b.json",
        )
        keys = lambda rep: [(c["family"], c["a"], c["b"]) for c in rep["candidates"]]
        assert keys(rep_a) == keys(rep_b)


class TestOtherSubjects:
    @pytest.mark.parametrize(
        "fs,workload",
        [("nova", "fio"), ("libnvmmio", "fio"), ("pqueue", "mpsc"), ("pqueue-async", "mpsc")],
    )
    def test_strict_clean(self, tmp_path, fs, workload):
        code, report = run_cli(
            tmp_path, "--workload", workload, "--fs", fs, *FAST, "--strict",
            name=f"{fs}.json",
        )
        assert code == 0, report["summary"]
        assert report["true_bugs"] == 0
        assert len(report["confirmed_families"]) >= 1

    def test_pqueue_tear_retirement_fires(self, tmp_path):
        """The queue's wide slot-body stores are crc-guarded: the tear
        candidate must land on the documented retirement, not escape as
        an unretired benign."""
        _, report = run_cli(
            tmp_path, "--workload", "mpsc", "--fs", "pqueue", *FAST, name="pq.json"
        )
        entry = next(
            c
            for c in report["candidates"]
            if (c["family"], c["a"]) == ("never-torn", "qslot_body")
        )
        assert entry["status"] == "retired-benign"

    def test_unknown_pairing_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            infer_main(["--workload", "mpsc", "--fs", "mgsp"])
        assert exc.value.code == 2


#: (workload, config, max_events) -> (events, ops, saturated, digest) of the
#: miner's input, captured at PR 20 when a dedicated collector tap built it
MINER_INPUT = {
    ("fio-randwrite", "sync", None): (5359, 375, False, "77b1f0b28ce7c943"),
    ("txn-mixed", "async", None): (2387, 202, False, "3a4ed16de6f1b8bb"),
    ("pqueue-mpsc", "sync", None): (335, 58, False, "e4aaab0e8d5f0f81"),
    ("nova-fio", "sync", None): (491, 45, False, "516e532c35f5fb26"),
    ("libnvmmio-fio", "sync", None): (274, 56, False, "52602dc4b158403a"),
    ("ycsb-a", "sync", None): (558, 201, False, "761a551105b6378d"),
    ("fio-randwrite", "sync", 1000): (1000, 375, True, "354c880bc4a832c1"),
}


@pytest.mark.parametrize("case", MINER_INPUT, ids=lambda case: "-".join(map(str, case)))
def test_miner_input_folded_from_the_ring_is_pinned(case):
    """``from_flight`` over the whole-run ring: every event's index,
    range, store kind, region, op and ``op_seq``."""
    workload, config, max_events = case
    trace = collect_trace(get_workload(workload), workload, config, max_events=max_events)
    rows = [(e.index, e.kind, e.offset, e.length, e.store_kind, e.region, e.op, e.op_seq)
            for e in trace.events]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert (len(rows), trace.ops, trace.saturated, digest) == MINER_INPUT[case]
