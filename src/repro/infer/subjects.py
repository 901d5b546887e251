"""Multi-run trace collection with census parity checks.

A subject (``--fs``) and its workload aliases are carried by the
crash-sweep registry entries and resolved by
:func:`repro.crashsweep.workloads.resolve`; inference covers every
subject there, the non-MGSP backends and raw-device structures too.
"""

from __future__ import annotations

from typing import List, Optional

from repro.crashsweep.census import count_events
from repro.crashsweep.workloads import get_workload

from repro.infer.events import Trace, from_flight
from repro.obs.flight import attach_flight

class ParityError(RuntimeError):
    """Recorded event count disagrees with the device's census count —
    the index-parity contract with crashsweep is broken."""


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
