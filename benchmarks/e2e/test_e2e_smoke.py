"""Smoke test of the benchmark itself (``pytest benchmarks/e2e``).

Not collected by tier-1 (``testpaths = ["tests"]``). Every run is
``--quick`` (2 passes), in a child process exactly as the driver starts
it, so what is checked is the contract: names, units, the last-line
JSON, and that the virtual clock repeats.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

from e2e import metrics  # noqa: E402
from e2e.run import run_child  # noqa: E402

WORKLOAD_NAMES = [name for name, _why in metrics.WORKLOADS]

#: where ISSUE 11 says a metric is undefined (null + why), by the issue's names
ISSUE_NULLS = {
    "service_mt": {"sim_p50_us", "sim_p99_us"},
    "crash_recover": {"sim_ops_per_s", "write_amp"},
    "fio_baselines": {"sim_p50_us", "sim_p99_us", "write_amp"},
}


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int = 42, trace: int = 0) -> dict:
    result = run_child(workload, seed, seconds=0, trace=trace, quick=True)
    assert result["correct"], result
    return result


def test_manifest_is_the_committed_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == metrics.manifest()


def test_manifest_meets_the_contract_limits():
    doc = metrics.manifest()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(len(m["unit"]) <= 16 for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    assert set(metrics.UNDEFINED) == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_all_present_and_nonzero(workload):
    """The contract's last line: a non-zero number in every cell."""
    result = run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics", "report"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in metrics.END_TO_END]
    for name, unit, _better, _bound in metrics.END_TO_END:
        cell = result["metrics"][name]
        assert cell["unit"] == unit
        assert math.isfinite(cell["value"]) and cell["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_nulls_are_where_the_issue_says_and_carry_a_why(workload):
    undefined = run(workload)["report"]["undefined"]
    band = set() if workload == "fio_baselines" else {"paper_band_error_p1"}
    assert set(undefined) == ISSUE_NULLS.get(workload, set()) | band
    assert all(why.strip() for why in undefined.values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics_all_present(workload):
    result = run(workload, trace=1)
    assert result["correct"]
    expected = metrics.per_layer()
    assert list(result["metrics"]) == [name for name, *_ in expected]
    for name, unit, _better in expected:
        cell = result["metrics"][name]
        assert cell["unit"] == unit
        assert math.isfinite(cell["value"]) and cell["value"] >= 0, name
    # the driver's own span always runs; the overhead ratio is a host-time
    # ratio of two passes each here, so only its presence is checked
    assert result["metrics"]["bench.driver.self_units_per_op"]["value"] > 0
    assert result["metrics"]["bench.trace_overhead_ratio"]["value"] > 0


def test_same_seed_repeats_the_virtual_clock_exactly():
    first = run("fio_mixed_mt", seed=7)
    run.cache_clear()
    second = run("fio_mixed_mt", seed=7)
    assert first["report"]["sim_digest"] == second["report"]["sim_digest"]
    for name in ("sim_ops_per_s", "sim_p50_us", "sim_p99_us", "write_amp"):
        assert first["metrics"][name] == second["metrics"][name]


def test_second_seed_changes_inputs_but_not_the_model():
    a, b = run("fio_4k_sync", seed=42), run("fio_4k_sync", seed=43)
    assert a["report"]["sim_digest"] != b["report"]["sim_digest"]  # other offsets, other image
    x, y = a["metrics"]["sim_ops_per_s"]["value"], b["metrics"]["sim_ops_per_s"]["value"]
    assert abs(x - y) / x < 0.02


def test_a_renamed_entry_point_fails_loudly(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from e2e import trace

    monkeypatch.setattr(
        trace, "LAYERS",
        trace.LAYERS + (("nvm.device", "repro.nvm.device", "NvmDevice", ("no_such_method",)),),
    )
    tracer = trace.Tracer()
    with pytest.raises(trace.TraceError, match="no_such_method"):
        tracer.install()
    # and the failed install left nothing patched
    from repro.nvm.device import NvmDevice

    assert not hasattr(NvmDevice.fence, "__wrapped__")
