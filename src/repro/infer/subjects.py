"""Inference subjects: (fs, workload) aliases → registered sweep
workloads, plus multi-run trace collection with census parity checks.

The CLI surface mirrors ``python -m repro.analysis`` (``--workload fio
--fs mgsp``), but inference also covers the non-MGSP backends and the
raw-device structures, so the alias table is wider.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crashsweep.census import count_events
from repro.crashsweep.workloads import get_workload

from repro.infer.events import Trace, from_flight
from repro.obs.flight import attach_flight

#: fs alias -> (config name, {workload alias -> registry workload})
SUBJECTS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "mgsp": ("sync", {"fio": "fio-randwrite", "txn": "txn-mixed", "ycsb": "ycsb-a"}),
    "mgsp-async": ("async", {"fio": "fio-randwrite", "txn": "txn-mixed", "ycsb": "ycsb-a"}),
    "nova": ("sync", {"fio": "nova-fio", "txn": "nova-txn"}),
    "libnvmmio": ("sync", {"fio": "libnvmmio-fio", "txn": "libnvmmio-txn"}),
    "pqueue": ("sync", {"mpsc": "pqueue-mpsc"}),
    "pqueue-async": ("async", {"mpsc": "pqueue-mpsc"}),
    "planted": ("sync", {"toy": "toy-misordered"}),
}


class ParityError(RuntimeError):
    """Recorded event count disagrees with the device's census count —
    the index-parity contract with crashsweep is broken."""


def resolve(fs: str, workload: str) -> Tuple[str, str]:
    """(registry workload name, config name) for the CLI aliases."""
    entry = SUBJECTS.get(fs)
    if entry is None:
        raise ValueError(f"unknown fs {fs!r}; choices: {', '.join(sorted(SUBJECTS))}")
    config_name, table = entry
    name = table.get(workload, workload if workload in table.values() else None)
    if name is None:
        raise ValueError(
            f"fs {fs!r} has no workload {workload!r}; choices: {', '.join(sorted(table))}"
        )
    return name, config_name


def collect_trace(
    workload, workload_name: str, config_name: str, max_events: Optional[int] = None
) -> Trace:
    """One passing run under an unbounded flight recorder; raises
    :class:`ParityError` if the recorder's index count drifts from the
    census event count."""
    outcome = workload.run(
        config_name, plan=None, instrument=lambda system: attach_flight(system, capacity=0)
    )
    if outcome.crashed:
        raise RuntimeError(f"{workload_name}: passing run crashed with no plan armed")
    flight = outcome.attached
    counted = count_events(outcome.fs.device, since=outcome.stats_base)
    if flight.event_index != counted:
        raise ParityError(
            f"{workload_name}/{config_name}: recorder indexed "
            f"{flight.event_index} events, census counted {counted}"
        )
    events = from_flight(flight.events_list(), workload.region_map(outcome.fs), max_events)
    return Trace(
        workload=workload_name,
        config_name=config_name,
        events=events,
        ops=flight.op_seq + 1,
        saturated=len(events) < counted,
    )


def collect_traces(
    workload_name: str,
    config_name: str,
    runs: int = 3,
    max_events: Optional[int] = None,
) -> List[Trace]:
    """Canonical run first, then ``runs - 1`` reseeded variants. Only the
    canonical trace's indices are crash points (the falsifier replays the
    canonical workload); variants exist to prune seed-specific patterns.
    """
    canonical = get_workload(workload_name)
    traces = [collect_trace(canonical, workload_name, config_name, max_events=max_events)]
    for r in range(1, max(1, runs)):
        variant = canonical.variant(1000 + r)
        traces.append(collect_trace(variant, workload_name, config_name, max_events=max_events))
    return traces
