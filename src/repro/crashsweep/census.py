"""Crash-point enumeration: census a workload, then pick what to sweep.

The census runs the workload once with a *counting* plan armed — an
:class:`~repro.nvm.crash.EventCounter` with no point, which counts every
persistence event and visits none. Two independent tallies must agree:

- ``events``: what the plan's ``on_event``/``on_batch`` hooks saw
  (ground truth);
- ``derived``: :func:`~repro.nvm.crash.count_events` over the
  ``DeviceStats`` delta since the plan was armed.

A mismatch means enumerated crash points diverge from events that can
actually fire — crash indices silently skipped or double-counted — and
the sweep reports it as a violation in its own right.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.nvm.crash import count_events, counting_plan

from repro.crashsweep.workloads import SweepWorkload


@dataclass
class Census:
    workload: str
    config_name: str
    events: int
    derived: int

    @property
    def parity_ok(self) -> bool:
        return self.events == self.derived


def take_census(
    workload: SweepWorkload, config_name: str, kinds: Optional[Set[str]] = None
) -> Census:
    """Run *workload* to completion and count its crash points."""
    plan = counting_plan(kinds)
    outcome = workload.run(config_name, plan)
    if outcome.crashed:  # pragma: no cover - counting plans cannot fire
        raise RuntimeError("census plan fired")
    derived = count_events(outcome.fs.device, kinds, since=outcome.stats_base)
    return Census(
        workload=workload.name,
        config_name=config_name,
        events=plan.count,
        derived=derived,
    )


def sample_points(events: int, budget: int, seed: int) -> List[int]:
    """Crash indices to sweep: exhaustive up to *budget*, otherwise a
    seeded stratified sample (one point per equal-width stratum, so
    coverage stays spread across the whole run instead of clustering)."""
    if events <= 0:
        return []
    if budget <= 0 or events <= budget:
        return list(range(events))
    rng = random.Random(seed)
    points = []
    for i in range(budget):
        lo = (i * events) // budget
        hi = ((i + 1) * events) // budget
        if hi > lo:
            points.append(rng.randrange(lo, hi))
    return sorted(set(points))
