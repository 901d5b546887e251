"""Wall-clock hot-path microbenchmark (not a paper figure).

Unlike every other benchmark in this suite — which reports *simulated*
metrics on the virtual clock — this one measures how many writes per
second the Python simulation itself sustains. It gates the hot-path
write engine (leaf fast path + scatter-gather device batching): the
results are exported to ``BENCH_hotpath.json`` and compared against the
committed pre-optimization baseline in
``benchmarks/baselines/hotpath_baseline.json``.

Harness (identical to the one that produced the baseline): a fresh MGSP
filesystem with trace recording nulled out, a 16 MB file drained to
durable after creation, fixed payloads and a seeded offset stream. Each
case runs three timed passes over the same offset list and reports the
best one — wall-clock throughput on a shared machine is noisy downward
only, so best-of-N measures the code rather than scheduler luck. The
committed baseline is the per-key maximum over three independent runs
of this harness against the pre-optimization tree (the strictest bar
the old code could clear).
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

BASELINE_PATH = Path(__file__).parent / "baselines" / "hotpath_baseline.json"
EXPORT_PATH = Path(__file__).parent.parent / "BENCH_hotpath.json"


def _bench(bs: int, seq: bool, nops: int, fast_path: bool) -> float:
    config = MgspConfig(leaf_fast_path=fast_path)
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
    from repro.bench.provenance import provenance

    out = {"fast": {}, "slow": {}}
    for bs, nops in CASES:
        for seq in (True, False):
            key = f"{'seq' if seq else 'rand'}_{bs}"
            out["fast"][key] = round(_bench(bs, seq, nops, fast_path=True), 1)
            out["slow"][key] = round(_bench(bs, seq, nops, fast_path=False), 1)
    out["baseline"] = json.loads(BASELINE_PATH.read_text())
    # wall-clock runs null their recorders, so telemetry is off by design
    out["provenance"] = provenance(
        seed=7,
        config={"fsize": FSIZE, "cases": list(CASES), "passes": PASSES},
        conservation="disabled",
    )
    return out


@pytest.mark.benchmark(group="wallclock")
def test_wallclock_hotpath(bench_table):
    results = bench_table(run_experiment)
    EXPORT_PATH.write_text(json.dumps(results, indent=1) + "\n")

    fast, slow, base = results["fast"], results["slow"], results["baseline"]

    # Acceptance gate: fast path + batching >= 2x pre-PR wall clock on
    # 64 B random writes (the descent-bound case).
    assert fast["rand_64"] >= 2.0 * base["rand_64"], (
        f"64B random writes {fast['rand_64']:.0f}/s "
        f"< 2x pre-PR baseline {base['rand_64']:.0f}/s"
    )
    # Every shape must at least hold the pre-PR line (generous margin
    # for machine noise — the CI smoke job uses a 3x band for the same
    # reason).
    for key, ref in base.items():
        assert fast[key] > ref / 3.0, f"{key}: {fast[key]:.0f}/s vs baseline {ref:.0f}/s"
    # The fast path itself must not lose to the slow path on its home
    # turf (leaf-contained writes).
    assert fast["rand_64"] > slow["rand_64"]
    assert fast["rand_4096"] > 0.8 * slow["rand_4096"]
