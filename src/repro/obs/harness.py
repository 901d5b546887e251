"""Run deterministic workloads with telemetry attached.

Mirrors :mod:`repro.analysis.harness`: name a crash-sweep workload and
config as that CLI does (``fio`` → ``fio-randwrite``, ``mgsp-sync`` →
``sync``), attach :func:`~repro.obs.spans.attach_telemetry`
through the workload's ``instrument`` hook (before setup, so the whole
stream is measured), replay to completion, and hand back an
:class:`ObsRun` bundling the telemetry with the run's totals.

The workloads are seed-deterministic and the telemetry meters are the
virtual clock and device counters, so two calls with the same arguments
produce identical exports — the property ``python -m repro.obs`` and
the CI job assert.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.harness import cli_names
from repro.crashsweep.workloads import get_workload
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Telemetry, attach_telemetry


@dataclass
class ObsRun:
    """One telemetered workload replay."""

    workload: str
    config_name: str
    telemetry: Telemetry
    outcome: object  # crashsweep RunOutcome (fs still mounted)
    flight: object = None  # FlightRecorder when requested, else None

    @property
    def fs(self):
        return self.outcome.fs


def run_workload(
    workload: str,
    config: str,
    registry: "MetricsRegistry | None" = None,
    flight_capacity: "int | None" = None,
) -> ObsRun:
    """Replay one crash-sweep workload to completion under telemetry.

    The sink attaches before :meth:`SweepWorkload.setup`, so setup
    traffic (file creation, initial population) is part of the measured
    stream and the byte meter's baseline is the fresh device — making
    ``telemetry.total_bytes()`` equal ``DeviceStats.stored_bytes``.
    """
    wname, cname = cli_names(workload, config)
    wl = get_workload(wname)

    def instrument(fs):
        telemetry = attach_telemetry(fs, registry=registry)
        if flight_capacity is None:
            return telemetry, None
        from repro.obs.flight import attach_flight

        return telemetry, attach_flight(fs, capacity=flight_capacity)

    outcome = wl.run(cname, instrument=instrument)
    telemetry, flight = outcome.attached
    return ObsRun(
        workload=wname,
        config_name=cname,
        telemetry=telemetry,
        outcome=outcome,
        flight=flight,
    )
