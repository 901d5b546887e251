"""Wall-clock gate for the array-native device core (ISSUE 7).

Companion to ``test_wallclock_hotpath.py``, with the opposite emphasis:
the hot-path suite gates the small-write engine (leaf fast path +
scatter-gather batching); this one gates the *bulk* write path that the
array-native rebuild targets — bitmap dirty-tracking, memoryview copy
pipeline, zero-copy coarse planning. The reference numbers in
``benchmarks/baselines/devicecore_reference.json`` are the fast-config
results the pre-rebuild tree committed to ``BENCH_hotpath.json``; the
acceptance bar is **2x on 2 MB blocks** with no small-block regression.

Identical harness to the hotpath suite (same file size, cases, seeds,
pass count), so the two JSON exports are directly comparable.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.core import MgspConfig, MgspFilesystem
from repro.sim.trace import NullRecorder

FSIZE = 16 << 20
CASES = ((64, 3000), (4096, 2000), (2 << 20, 100))  # (block size, ops)
PASSES = 3  # timed passes per case; best one is reported
LARGE_KEYS = ("seq_2097152", "rand_2097152")

REFERENCE_PATH = Path(__file__).parent / "baselines" / "devicecore_reference.json"
EXPORT_PATH = Path(__file__).parent.parent / "BENCH_devicecore.json"


def _bench(bs: int, seq: bool, nops: int) -> float:
    config = MgspConfig(leaf_fast_path=True)
    fs = MgspFilesystem(device_size=max(64 << 20, FSIZE * 4), config=config)
    fs.device.detach(fs.recorder)
    fs.recorder = NullRecorder()
    handle = fs.create("b", capacity=FSIZE)
    fs.device.drain()
    blocks = FSIZE // bs
    if seq:
        offs = [(i % blocks) * bs for i in range(nops)]
    else:
        rng = random.Random(7)
        offs = [rng.randrange(blocks) * bs for _ in range(nops)]
    payload = b"\xab" * bs
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for off in offs:
            handle.write(off, payload)
        best = min(best, time.perf_counter() - t0)
    return nops / best


def run_experiment() -> dict:
    reference = json.loads(REFERENCE_PATH.read_text())
    results = {}
    for bs, nops in CASES:
        for seq in (True, False):
            key = f"{'seq' if seq else 'rand'}_{bs}"
            results[key] = round(_bench(bs, seq, nops), 1)
    from repro.bench.provenance import provenance

    return {
        "results": results,
        "reference": reference,
        "speedup": {
            key: round(results[key] / ref, 2) for key, ref in reference.items()
        },
        # wall-clock runs null their recorders, so telemetry is off by design
        "provenance": provenance(
            seed=7,
            config={"fsize": FSIZE, "cases": list(CASES), "passes": PASSES},
            conservation="disabled",
        ),
    }


@pytest.mark.benchmark(group="wallclock")
def test_wallclock_devicecore(bench_table):
    out = bench_table(run_experiment)
    EXPORT_PATH.write_text(json.dumps(out, indent=1) + "\n")

    results, reference = out["results"], out["reference"]

    # Acceptance gate (ISSUE 7): the array-native core must at least
    # double 2 MB block throughput over the pre-rebuild fast config.
    for key in LARGE_KEYS:
        assert results[key] >= 2.0 * reference[key], (
            f"{key}: {results[key]:.0f}/s < 2x pre-rebuild "
            f"reference {reference[key]:.0f}/s"
        )
    # Small/medium blocks must hold the line. The committed export is
    # checked at the strict 10% band; at run time allow the same 3x
    # machine-noise band the hotpath smoke uses, so a loaded CI box
    # doesn't flake the suite.
    for key, ref in reference.items():
        if key in LARGE_KEYS:
            continue
        assert results[key] > ref / 3.0, (
            f"{key}: {results[key]:.0f}/s vs reference {ref:.0f}/s"
        )
