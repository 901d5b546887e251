"""Bench harness plumbing + the runnable examples."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from repro.bench.figures import EXPERIMENTS, run_all, tab02
from repro.bench.harness import Table, run_one, sweep_fio
from repro.bench.registry import FS_NAMES, device_size_for, make_fs
from repro.workloads.fio import FioJob

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
#: the paper-shape assertion modules: benchmarks/ without e2e/
SHAPE_MODULES = sorted((ROOT / "benchmarks").glob("*.py"))


class TestRegistry:
    @pytest.mark.parametrize("name", FS_NAMES)
    def test_factories(self, name):
        fs = make_fs(name, device_size=64 << 20)
        assert fs.name == name

    def test_ext4_modes(self):
        assert make_fs("Ext4-ordered", device_size=64 << 20).name == "Ext4-ordered"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_fs("ZFS")

    def test_device_size_for(self):
        assert device_size_for(1 << 20) == 64 << 20
        assert device_size_for(64 << 20) == 256 << 20


class TestTable:
    def test_set_value_render(self):
        table = Table(title="T")
        table.set("a", "x", 1.25)
        table.set("a", "y", "hi")
        table.set("b", "x", 3)
        text = table.render()
        assert "T" in text and "1.2" in text and "hi" in text
        assert table.value("a", "x") == pytest.approx(1.2, abs=0.06)
        assert str(table) == text

    def test_missing_cell_rendered_as_dash(self):
        table = Table(title="T")
        table.set("a", "x", 1)
        table.set("b", "y", 2)
        assert "-" in table.render()


class TestHarness:
    def test_run_one(self):
        result = run_one("MGSP", FioJob(op="write", bs=4096, fsize=4 << 20, nops=20))
        assert result.fs_name == "MGSP"
        assert result.throughput_mb_s > 0

    def test_sweep_fio(self):
        jobs = [FioJob(op="write", bs=bs, fsize=4 << 20, nops=20) for bs in (1024, 4096)]
        table = sweep_fio(("Ext4-DAX", "MGSP"), jobs, title="sweep")
        assert table.value("MGSP", "4096") > 0
        assert set(table.rows) == {"Ext4-DAX", "MGSP"}


class TestFigures:
    def test_registry_complete(self):
        expected = {
            "fig01", "fig07", "fig08-write", "fig08-randwrite", "fig08-read",
            "fig08-randread", "fig09", "fig10-1k", "fig10-4k", "fig10-16k",
            "fig11-wal", "fig11-off", "fig12-wal", "fig12-off", "tab02",
            "fig13", "recovery",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_all_selection(self):
        results = dict(run_all(["tab02"]))
        assert "tab02" in results
        assert "amplification" in results["tab02"]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            list(run_all(["fig99"]))

    def test_every_experiment_is_asserted_on_by_a_benchmarks_module(self):
        consumers = [
            text for text in (path.read_text() for path in SHAPE_MODULES)
            if "repro.bench.figures import" in text
        ]
        unchecked = [
            key for key in EXPERIMENTS
            if not any(f'"{key}"' in text for text in consumers)
        ]
        assert not unchecked, unchecked

    def test_benchmarks_modules_build_no_table_of_their_own(self):
        copies = [
            path.name for path in SHAPE_MODULES
            if any(name in path.read_text() for name in ("def run_experiment", "def run_matrix"))
        ]
        assert not copies, copies

    def test_tab02_quick(self):
        table = tab02(nops=60)
        assert 1.8 < table.value("Libnvmmio", "4K") < 2.3
        assert table.value("MGSP", "4K") < 1.2


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "crash_recovery.py",
        "database_on_mgsp.py",
        "atomic_transactions.py",
        "contention_timeline.py",
    ],
)
def test_examples_run_clean(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_fio_comparison_example(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fio_comparison.py", "--nops", "40"])
    runpy.run_path(str(EXAMPLES / "fio_comparison.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "MGSP" in out and "x" in out


def test_bench_e2e_appends_a_stamped_row_per_workload(monkeypatch, tmp_path, capsys):
    """``python -m repro.bench e2e`` with a canned driver: the frozen
    command gets exactly the contract's flags, rows are appended to what
    the file already holds, and a failing driver exit is passed on."""
    import json
    import subprocess
    from types import SimpleNamespace

    from repro.bench import e2e
    from repro.bench.__main__ import main

    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        if cmd[0] == "git":
            return SimpleNamespace(stdout="abc123\n", stderr="", returncode=0)
        last = {"correct": True, "attempted": 7, "failed": 0,
                "metrics": {"host_units_per_op": {"value": 1.5, "unit": "units/op"}}}
        code = 1 if "--workload=tpcc_db" in cmd else 0
        return SimpleNamespace(stdout="noise\n" + json.dumps(last) + "\n", stderr="", returncode=code)

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(e2e, "BENCH_FILE", tmp_path / "BENCH_e2e.json")
    assert main(["e2e", "--workload", "crash_recover", "--seconds", "3"]) == 0
    assert main(["e2e", "--workload", "tpcc_db", "--seed", "9", "--seconds", "3"]) == 1
    assert calls[1] == ["python3", "benchmarks/e2e/run.py", "--workload=crash_recover", "--seed=42", "--seconds=3"]
    first, second = json.loads(e2e.BENCH_FILE.read_text())["rows"]
    assert (first["workload"], second["workload"]) == ("crash_recover", "tpcc_db")
    assert first["metrics"] == {"host_units_per_op": 1.5} and first["attempted"] == 7
    assert first["provenance"]["git_rev"] == "abc123" and first["provenance"]["source"] == "run"
    assert (first["provenance"]["seed"], second["provenance"]["seed"]) == (42, 9)
    assert first["provenance"]["config_digest"] != second["provenance"]["config_digest"]
    assert "crash_recover: 1.5 units/op" in capsys.readouterr().out


def test_bench_e2e_files_what_the_driver_says_above_its_json_line(monkeypatch, tmp_path):
    """The untraced driver's pass quartiles, calibration unit and
    ``sim_digest`` (stdout lines in ``benchmarks/e2e/run.py``'s format)
    land in the row beside the last line's metrics."""
    import json
    import subprocess
    from types import SimpleNamespace

    from repro.bench import e2e

    digest = "dfefb7dc4f4bdb54f7d606010524bb25457085fac6478db9b88bfef8c9d57152"
    stdout = (
        "fio_mixed_mt: seed 42, op = read or write+fsync, 4 passes of 6000 ops (4 steady)\n"
        "fio_mixed_mt: host_units_per_op quartiles 373.1014 / 383.9882 / 395.5309, "
        "unit 254.0 ns, raw 10156.7 ops/s, gc runs 875\n"
        f"fio_mixed_mt: sim_digest {digest}\n"
        "fio_mixed_mt     setup_s      0.32 s\n"
        + json.dumps({"correct": True, "attempted": 24000, "failed": 0,
                      "metrics": {"host_units_per_op": {"value": 383.9882, "unit": "units/op"}}})
        + "\n"
    )
    monkeypatch.setattr(
        subprocess, "run", lambda cmd, **kwargs: SimpleNamespace(stdout=stdout, stderr="", returncode=0))
    monkeypatch.setattr(e2e, "BENCH_FILE", tmp_path / "BENCH_e2e.json")
    assert e2e.main(["--workload", "fio_mixed_mt", "--seconds", "3"]) == 0
    (row,) = json.loads(e2e.BENCH_FILE.read_text())["rows"]
    assert row["host_units_quartiles"] == [373.1014, 383.9882, 395.5309]
    assert row["unit_ns"] == 254.0 and row["sim_digest"] == digest
    assert row["metrics"] == {"host_units_per_op": 383.9882}
