"""repro.obs: unified telemetry — spans, metrics, attribution, exporters.

The measurement substrate for the reproduction: a metrics registry
(:mod:`repro.obs.registry`), virtual-time spans with per-layer
attribution (:mod:`repro.obs.spans`, :mod:`repro.obs.attribution`),
and exporters (:mod:`repro.obs.exporters`). Everything runs on the
simulated clock only, so telemetry is deterministic; with the default
:data:`~repro.obs.spans.NULL_SINK` attached, instrumented hot paths
cost one attribute check.

Typical use::

    from repro.obs import MetricsRegistry, attach_telemetry, to_report

    tel = attach_telemetry(fs)
    ... run the workload ...
    print(to_report(tel))

or, end to end, ``python -m repro.obs --workload fio --config mgsp-sync``.

This package deliberately imports none of the protocol layers (core,
fs, crashsweep) at import time — ``repro.fsapi.interface`` imports
:data:`NULL_SINK` from here, so the dependency must stay one-way. The
workload harness lives in :mod:`repro.obs.harness` (imported lazily by
the CLI and tests).
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.spans import NULL_SINK, NullSink, Telemetry, attach_telemetry
from repro.obs.flight import (
    FlightRecorder,
    attach_flight,
)
from repro.obs.attribution import (
    lock_contention,
    time_breakdown,
    write_breakdown,
)
from repro.obs.exporters import json_snapshot, to_json, to_prometheus, to_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "NULL_SINK",
    "NullSink",
    "Telemetry",
    "attach_telemetry",
    "FlightRecorder",
    "attach_flight",
    "time_breakdown",
    "write_breakdown",
    "lock_contention",
    "json_snapshot",
    "to_json",
    "to_prometheus",
    "to_report",
]
