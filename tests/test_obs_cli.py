"""The telemetry CLI and its exporter formats, plus the bench sidecar."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import main as obs_main


def test_report_format_and_conservation_exit(capsys):
    assert obs_main(["--workload", "fio", "--config", "mgsp-sync"]) == 0
    out = capsys.readouterr().out
    assert "per-layer virtual time" in out
    assert "per-layer device writes" in out
    assert "hottest spans" in out
    assert "(unattributed)" in out
    assert "write.data" in out


def test_async_config_conserves_too(capsys):
    assert obs_main(["--workload", "txn", "--config", "mgsp-async"]) == 0
    out = capsys.readouterr().out
    assert "checkpoint" in out  # async write-back shows the flusher layer


def test_json_export_is_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert obs_main(["--workload", "fio", "--config", "mgsp-sync",
                     "--format", "json", "--out", str(a)]) == 0
    assert obs_main(["--workload", "fio", "--config", "mgsp-sync",
                     "--format", "json", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()

    snap = json.loads(a.read_text())
    totals = snap["totals"]
    assert sum(snap["time_breakdown_ns"].values()) == pytest.approx(
        totals["elapsed_ns"], rel=1e-9
    )
    assert sum(snap["write_breakdown_bytes"].values()) == totals["stored_bytes"]
    assert snap["spans"]["write.data"]["count"] > 0
    assert "counters" in snap["metrics"]


def test_prometheus_export_shape(capsys):
    assert obs_main(["--workload", "fio", "--config", "mgsp-sync",
                     "--format", "prometheus"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert any(l.startswith("# TYPE span_calls_total counter") for l in lines)
    assert any(l.startswith("# TYPE span_ns histogram") for l in lines)
    # One TYPE header per family, not per sample.
    type_lines = [l for l in lines if l.startswith("# TYPE ")]
    assert len(type_lines) == len(set(type_lines))
    # Every sample line ends in a parseable number.
    for line in lines:
        if line.startswith("#") or not line:
            continue
        float(line.rpartition(" ")[2])
    # Histogram series carry the canonical +Inf bound and sidecars.
    assert any('le="+Inf"' in l for l in lines)
    assert any(l.startswith("span_ns_sum") for l in lines)
    assert any(l.startswith("span_ns_count") for l in lines)


def test_conservation_checker_catches_bad_books():
    from repro.bench.provenance import conservation_status
    from repro.obs.attribution import conserved
    from repro.obs.harness import run_workload

    run = run_workload("fio", "mgsp-sync")
    tel = run.telemetry
    assert conserved(tel)
    assert conservation_status([tel]) == "ok"
    # Cook the books: shift a span's self bytes without touching the
    # totals — the exact byte check must notice.
    tel.spans["write.data"].self_bytes += 1
    assert not conserved(tel)
    assert conservation_status([tel]) == "violated"


def test_bench_breakdown_sidecar():
    from repro.bench.harness import collect_breakdowns, run_one
    from repro.workloads.fio import FioJob

    records = []
    collect_breakdowns(records)
    try:
        job = FioJob(op="write", fsize=1 << 20, bs=4096, fsync=1, nops=40)
        run_one("MGSP", job)
    finally:
        collect_breakdowns(None)
    assert len(records) == 1
    rec = records[0]
    assert rec["fs"] == "MGSP"
    assert rec["job"]["bs"] == 4096
    breakdown = rec["breakdown"]
    assert sum(breakdown["write_breakdown_bytes"].values()) == (
        breakdown["totals"]["stored_bytes"]
    )
    json.dumps(rec)  # sidecar records are JSON-serializable


def test_workloads_cli_histogram_line(capsys):
    from repro.workloads.__main__ import main as wl_main

    assert wl_main(["MGSP", "write", "1m", "4k", "1", "1", "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "histogram" in out and "buckets" in out
