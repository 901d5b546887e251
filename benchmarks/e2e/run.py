#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, eight workloads, two clocks.

Driver contract (one workload, one process)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the metrics by name and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Without ``--workload`` it runs every workload, untraced then traced,
each in its own child process (``--selfcheck`` runs the untraced set
twice and compares). Exit code 1: an output oracle failed; 2: the traced
run's self times did not add up. See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # child start: set-up time is measured from here

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: passes a run may make however long it is given (bounds file/db growth)
MAX_PASSES = 60
#: untraced passes the traced run times first, for bench.trace_overhead_ratio
REFERENCE_PASSES = 2
#: passes per run (and in the sim window) under --quick
QUICK_PASSES = 2
#: set-ups per run; setup_s reports their median
SETUPS = 3


def _bootstrap() -> None:
    """Import the benchmark as package ``e2e`` (so its ``trace`` module
    never shadows the standard library's) and the program from ``src``."""
    sys.path[0:1] = [str(HERE.parent), str(ROOT / "src")]


def _require_program() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")


def _say(line: str = "") -> None:
    print(line, flush=True)


# -- one workload in this process ---------------------------------------------------


class PassLog:
    """Timings of the passes made so far and the stop rule: at least
    *floor* passes, then as many as *seconds* has room for."""

    def __init__(self, seconds: float, floor: int) -> None:
        self.timings: list = []
        self._deadline = time.perf_counter() + seconds
        self._floor = floor
        self._started = time.perf_counter()

    def more(self) -> bool:
        done = len(self.timings)
        if done < self._floor:
            return True
        if done >= MAX_PASSES:
            return False
        # stop when another pass (at the mean cost so far) would overrun
        mean = (time.perf_counter() - self._started) / done
        return time.perf_counter() + mean <= self._deadline


def _make(cls, seed: int):
    workload = cls(seed)
    workload.setup()
    return workload


def _fresh_import_s() -> float:
    """Seconds a fresh interpreter needs for the imports this process
    made before its first set-up. Process start is the noisiest 0.2 s of
    a run here, so setup_s takes the median of three of them."""
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path[0:1] = {[str(HERE.parent), str(ROOT / 'src')]!r}; "
        "from e2e import calib, metrics; from e2e.workloads import WORKLOADS; "
        "print(time.perf_counter() - t0)"
    )
    done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def _set_up(cls, seed: int):
    """Set the workload up SETUPS times; returns (workload, median s)."""
    costs = []
    workload = None
    for _ in range(SETUPS):
        workload = None  # drop the previous instance before building the next
        gc.collect()
        t0 = time.perf_counter()
        workload = _make(cls, seed)
        costs.append(time.perf_counter() - t0)
    return workload, statistics.median(costs)


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=1) + "\n")


def _run_passes(workload, log: PassLog, sim_passes: int, tracer=None) -> list:
    """Drive prepare/run/settle until the log says stop; returns, per
    pass, the tracer's (per-layer self ns, root ns) when traced."""
    from e2e.calib import timed_pass

    traced = []
    index = 0
    while log.more():
        workload.prepare(index)
        gc.collect()  # every pass starts with empty GC generations
        if tracer is None:
            log.timings.append(timed_pass(lambda: workload.run(index)))
        else:
            before = tracer.snapshot()
            root = [0]

            def body() -> int:
                tracer.begin_root()
                try:
                    return workload.run(index)
                finally:
                    root[0] = tracer.end_root()

            log.timings.append(timed_pass(body))
            traced.append((tracer.self_ns_by_layer(before), root[0]))
        workload.settle(index, sim=index < sim_passes)
        if index == sim_passes - 1:
            workload.close_sim_window()
            if tracer is not None:
                tracer.mark_window()
        index += 1
    return traced


def _say_metric(workload: str, name: str, value, unit: str, why: str = "") -> None:
    shown = "null" if value is None else repr(value)
    _say(f"{workload:16s} {name:48s} {shown:>24} {unit}" + (f"  # {why}" if why else ""))


def _emit(failed: int, attempted: int, table: Dict[str, tuple]) -> int:
    """Print the contract's last line; *table* is name -> (number, unit)."""
    correct = failed == 0
    _say(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in table.items()},
    }))
    return 0 if correct else 1


def run_workload(args) -> int:
    from e2e import calib, metrics
    from e2e.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")
    import_s = time.perf_counter() - _T0
    sim_passes = cls.sim_passes
    if args.quick:
        sim_passes, args.seconds = min(sim_passes, QUICK_PASSES), 0
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        return _run_traced(args, cls, sim_passes)

    import_s = statistics.median([import_s] + [_fresh_import_s() for _ in range(SETUPS - 1)])
    workload, setup_median = _set_up(cls, args.seed)
    setup_s = import_s + setup_median
    gc_before = _gc_collections()
    log = PassLog(args.seconds, sim_passes)
    _run_passes(workload, log, sim_passes)
    gc_runs = _gc_collections() - gc_before
    workload.verify()

    units = calib.steady_units_per_op(log.timings)
    q1, median, q3 = calib.quartiles(units)
    attempted = sum(t.ops for t in log.timings)
    values = {
        "setup_s": setup_s,
        "host_units_per_op": median,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **workload.sim_metrics(),
    }
    undefined = metrics.UNDEFINED[workload.name]
    names = [name for name, *_ in metrics.END_TO_END]
    if set(values) != set(names) - set(undefined):
        sys.exit(f"run.py: {workload.name} defines {sorted(values)}; metrics.UNDEFINED says otherwise")
    digest = workload.sim_digest()
    _say(f"{workload.name}: seed {args.seed}, op = {workload.op_name}, "
         f"{len(log.timings)} passes of {log.timings[0].ops} ops ({len(units)} steady), "
         f"sim window {workload.sim.passes} passes / {workload.sim.ops} ops / "
         f"{len(workload.sim.latencies_ns)} latency samples")
    _say(f"{workload.name}: host_units_per_op quartiles {q1:.4f} / {median:.4f} / {q3:.4f}, "
         f"unit {statistics.median(t.unit_s for t in log.timings) * 1e9:.1f} ns, "
         f"raw {attempted / sum(t.seconds for t in log.timings):.1f} ops/s, gc runs {gc_runs}")
    _say(f"{workload.name}: sim_digest {digest}")
    table = {}
    for name, unit, _better, _bound in metrics.END_TO_END:
        value, why = values.get(name), undefined.get(name, "")
        table[name] = (metrics.stand_in(name, values) if value is None else value, unit)
        if name == "paper_band_error_p1":  # printed under the issue's name, without the + 1
            name, value = "paper_band_error", None if value is None else value - 1.0
        _say_metric(workload.name, name, value, unit, why)
    _say_metric(workload.name, "failed_share", workload.failed / attempted, "ratio",
                f"{workload.failed} of {attempted}; the last line's attempted / failed carry it")
    document = {
        "workload": workload.name, "seed": args.seed, "sim_digest": digest,
        "undefined": undefined,
        "passes": len(log.timings), "units_per_op": [t.units_per_op for t in log.timings],
        "pass_seconds": [t.seconds for t in log.timings],
        "unit_ns": [t.unit_s * 1e9 for t in log.timings],
        "attempted": attempted, "failed": workload.failed,
    }
    _write_json(OUT_DIR / f"{workload.name}.json", document)
    return _emit(workload.failed, attempted, table)


def _run_traced(args, cls, sim_passes: int) -> int:
    from e2e import calib, metrics
    from e2e.trace import CAPTURE_OPS, Tracer, conserved

    # 1. a short untraced reference on its own instance
    reference = _make(cls, args.seed)
    ref_log = PassLog(0.0, REFERENCE_PASSES)
    _run_passes(reference, ref_log, sim_passes=0)
    ref_units = statistics.median(calib.steady_units_per_op(ref_log.timings))
    ref_ops_per_s = sum(t.ops for t in ref_log.timings) / sum(t.seconds for t in ref_log.timings)
    failed = reference.failed
    reference = None
    gc.collect()

    # 2. wrappers in before set-up, so nothing binds an unwrapped method
    tracer = Tracer()
    tracer.install()
    workload = _make(cls, args.seed)
    workload.op = tracer.wrap_op(workload.do_op)
    gc_before = _gc_collections()
    log = PassLog(args.seconds, sim_passes)
    traced = _run_passes(workload, log, sim_passes, tracer=tracer)
    gc_runs = _gc_collections() - gc_before
    tracer.uninstall()
    workload.verify()
    failed += workload.failed

    # 3. conservation: per-layer self times reconstruct every root span
    for self_ns, root_ns in traced:
        if not conserved(self_ns, root_ns):
            sys.stderr.write(
                f"run.py: {workload.name}: layer self times sum to {sum(self_ns)} ns "
                f"but the root span is {root_ns} ns\n")
            return 2

    values = dict.fromkeys((name for name, _u, _b in metrics.per_layer()))
    # calls are counted over the sim window: the same passes every run,
    # so calls_per_op repeats bit for bit
    sim_ops = sum(t.ops for t in log.timings[:sim_passes])
    window_calls = tracer.window_calls_by_layer()
    steady = calib.steady_mask(log.timings)
    for layer_idx, layer in enumerate(metrics.LAYER_NAMES):
        values[f"{layer}.self_units_per_op"] = statistics.median(
            (self_ns[layer_idx] / timing.ops) / (timing.unit_s * 1e9)
            for (self_ns, _root), timing, ok in zip(traced, log.timings, steady) if ok
        )
        values[f"{layer}.calls_per_op"] = window_calls[layer_idx] / sim_ops
    values.update(workload.layer_counts())
    unit_ns = statistics.median(t.unit_s for t in log.timings) * 1e9
    for name, ns in workload.host_phase_ns().items():
        values[name] = ns / unit_ns
    commits = tracer.window_calls_of("db.wal:WriteAheadLog.commit")
    values["db.wal.commits_per_txn"] = commits / sim_ops if commits else None
    units = calib.steady_units_per_op(log.timings)
    values["bench.trace_overhead_ratio"] = statistics.median(units) / ref_units
    values["bench.host_ops_per_s"] = ref_ops_per_s
    values["bench.unit_ns"] = unit_ns
    values["bench.pass_iqr_ratio"] = calib.iqr_ratio(units)
    values["bench.gc_collections"] = gc_runs

    _write_json(OUT_DIR / f"{workload.name}.trace.json", tracer.chrome_trace(workload.name))
    _write_json(OUT_DIR / f"{workload.name}.functions.json", tracer.function_table())
    attempted = sum(t.ops for t in log.timings)
    _say(f"{workload.name}: traced, seed {args.seed}, {len(log.timings)} passes, "
         f"{len(tracer.spans)} spans of the first {min(tracer.op_id + 1, CAPTURE_OPS)} ops kept, "
         f"conservation ok")
    table = {}
    for name, unit, _better in metrics.per_layer():
        value = values[name]
        _say_metric(workload.name, name, value, unit,
                    "" if value is not None else f"nothing to count on {workload.name}")
        # the contract's last line takes numbers only; per-layer has no bound
        table[name] = (0.0 if value is None else value, unit)
    return _emit(failed, attempted, table)


# -- every workload, each in a child ------------------------------------------------


def run_child(workload: str, seed: int, seconds: int, trace: int, quick: bool = False) -> dict:
    """Run one workload in its own process, echoing what it prints.

    Returns its last-line JSON; an untraced child's also holds, under
    ``report``, the document it left in ``out/`` (sim_digest, undefined
    cells, pass timings)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        _say("  " + line)
    if not lines or done.returncode not in (0, 1):
        _say(f"run.py: workload {workload} (trace {trace}) exited {done.returncode}")
        raise SystemExit(done.returncode)
    result = json.loads(lines[-1])
    if not trace:
        result["report"] = json.loads((OUT_DIR / f"{workload}.json").read_text())
    return result


def _run_set(args, trace: int) -> Dict[str, dict]:
    from e2e import metrics

    return {
        name: run_child(name, args.seed, args.seconds, trace, args.quick)
        for name, _why in metrics.WORKLOADS
    }


def _all_correct(results: Dict[str, dict]) -> bool:
    return all(r["correct"] for r in results.values())


def run_all(args) -> int:
    from e2e import metrics

    committed = ROOT / "BENCHMARK.json"
    if not committed.exists() or json.loads(committed.read_text()) != metrics.manifest():
        _write_json(committed, metrics.manifest())
        _say(f"wrote {committed}")
    ok = _all_correct(_run_set(args, trace=0)) and _all_correct(_run_set(args, trace=1))
    _say("every oracle passed" if ok else "FAIL: an output oracle failed")
    return 0 if ok else 1


def run_selfcheck(args) -> int:
    """Two untraced sets of the same code and seed must agree: the host
    clock within metrics.SAME_SEED, everything else exactly."""
    from e2e import metrics

    first = _run_set(args, trace=0)
    second = _run_set(args, trace=0)
    bad: List[str] = []
    for workload in first:
        a, b = first[workload], second[workload]
        if a["report"]["sim_digest"] != b["report"]["sim_digest"]:
            bad.append(f"{workload}: sim_digest differs")
        if a["failed"] != b["failed"]:
            bad.append(f"{workload}: failed ops differ ({a['failed']} vs {b['failed']})")
        for name, *_ in metrics.END_TO_END:
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            limit = metrics.SAME_SEED.get(name)
            if limit is None:
                if x != y:
                    bad.append(f"{workload}: {name} {x!r} != {y!r} (must repeat exactly)")
                continue
            allowed = limit * x  # the first set is the baseline, as the parent is the driver's
            if name == "setup_s":
                allowed = max(allowed, metrics.SETUP_FLOOR_S)
            if abs(x - y) > allowed:
                bad.append(f"{workload}: {name} {x:.4f} vs {y:.4f} differ by more than {limit:.0%}")
    ok = _all_correct(first) and _all_correct(second) and not bad
    for line in bad:
        _say("SELFCHECK " + line)
    _say("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="2 passes per run (smoke test)")
    parser.add_argument("--selfcheck", action="store_true", help="run the untraced set twice and compare")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes feed set iteration order; pin them so a seed repeats
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(HERE / "run.py"), *sys.argv[1:]])
    _bootstrap()
    from e2e import metrics

    _require_program()
    if args.seconds is None:
        args.seconds = metrics.RUN_SECONDS
    if args.workload is not None:
        return run_workload(args)
    return run_selfcheck(args) if args.selfcheck else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
