"""Telemetry exporters: JSON snapshot, Prometheus text, human report.

Three views over one :class:`~repro.obs.spans.Telemetry`:

- :func:`to_json` / :func:`json_snapshot` — a deterministic nested
  dict (span table, layer breakdowns, lock contention, full metrics
  registry) suitable for sidecar files and run-to-run diffing;
- :func:`to_prometheus` — Prometheus text exposition format
  (``# TYPE`` headers, ``_bucket``/``_sum``/``_count`` histogram
  series with cumulative ``le`` labels);
- :func:`to_report` — the human ``top``-style report, reusing the
  table formatting from :mod:`repro.inspect`.

All output is keyed and ordered deterministically: two identical
simulated runs render byte-identical exports (the CI contract).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs import attribution
from repro.obs.spans import Telemetry


def json_snapshot(tel: Telemetry) -> Dict[str, object]:
    """The full telemetry state as plain deterministic data."""
    spans = {
        name: {
            "count": s.count,
            "self_ns": s.self_ns,
            "total_ns": s.total_ns,
            "self_bytes": s.self_bytes,
            "total_bytes": s.total_bytes,
        }
        for name, s in sorted(tel.spans.items())
    }
    return {
        "totals": {
            "elapsed_ns": tel.total_ns(),
            "stored_bytes": tel.total_bytes(),
        },
        "time_breakdown_ns": {k: v for k, v in attribution.time_breakdown(tel)},
        "write_breakdown_bytes": {k: v for k, v in attribution.write_breakdown(tel)},
        "lock_contention": [
            {"key": key, "blocked": blocked, "wait_ns": wait}
            for key, blocked, wait in attribution.lock_contention(tel)
        ],
        "spans": spans,
        "metrics": tel.registry.snapshot(),
    }


def to_json(tel: Telemetry, indent: int = 2) -> str:
    """:func:`json_snapshot` rendered with sorted keys (diffable)."""
    return json.dumps(json_snapshot(tel), indent=indent, sort_keys=True)


def _prom_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _escape_label_value(value: str) -> str:
    """Exposition-format label-value escaping: backslash, double-quote,
    and line-feed (in that order — backslash first)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels) -> str:
    """Like :func:`repro.obs.registry.render_labels` but with values
    escaped per the exposition format. Kept local on purpose: the
    registry's renderer doubles as the JSON snapshot's series key, so
    its output must stay verbatim."""
    if not labels:
        return ""
    parts = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in labels)
    return "{" + parts + "}"


#: ``# HELP`` text per metric family; families not listed fall back to
#: a generic line (the format requires HELP before the first sample).
_HELP: Dict[str, str] = {
    "checkpoint_bytes_total": "Bytes written back by checkpoint passes.",
    "flusher_bytes_total": "Bytes written back by the async flusher daemon.",
    "flusher_epochs_total": "Async write-back epochs the flusher completed.",
    "flusher_deferred": "Dirty bytes deferred to the flusher at last count.",
    "libnvmmio_bg_checkpoints_total": "Background checkpoints in the libnvmmio model.",
    "lock_waits_total": "Simulated blocked lock acquisitions.",
    "lock_wait_ns": "Virtual nanoseconds spent blocked on locks.",
    "log_area_bytes": "Current per-file log area footprint.",
    "metalog_commits_total": "Metadata-log commit records appended.",
    "mgl_acquires_total": "Multi-granularity lock acquisitions.",
    "mgl_hold_ns": "Virtual nanoseconds multi-granularity locks were held.",
    "recovery_entries_discarded": "Log entries discarded during recovery.",
    "recovery_entries_replayed": "Log entries replayed during recovery.",
    "recovery_log_bytes_written_back": "Log bytes written back during recovery.",
    "service_admission_rejects_total": "Requests rejected by tenant token buckets.",
    "service_shard_makespan_ns": "Replay makespan of the shard's streams.",
    "service_shard_utilization": "Busy channel time over makespan x channels.",
    "service_tenant_errors_total": "Tenant requests that raised a service error.",
    "service_tenants": "Tenants registered on the shard.",
    "span_calls_total": "Telemetry span entries, by span name.",
    "span_ns": "Virtual nanoseconds per telemetry span.",
    "txn_commits_total": "Transactions committed.",
    "txn_rollbacks_total": "Transactions rolled back.",
}


def to_prometheus(tel: Telemetry) -> str:
    """Prometheus text exposition format (0.0.4) for the registry.

    Counters and gauges render one sample each; histograms render
    cumulative ``_bucket`` series (with the canonical ``+Inf`` bound)
    plus ``_sum`` and ``_count``. Metric families are emitted in
    sorted-name order; each carries one ``# HELP`` and one ``# TYPE``
    header, and label values are escaped per the exposition format.
    """
    lines: List[str] = []
    seen_type: set = set()

    def header(name: str, kind: str) -> None:
        if name not in seen_type:
            seen_type.add(name)
            help_text = _HELP.get(name, "repro telemetry metric.")
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

    for counter in tel.registry.counters():
        name = _prom_name(counter.name)
        header(name, "counter")
        lines.append(f"{name}{_prom_labels(counter.labels)} {_fmt(counter.value)}")
    for gauge in tel.registry.gauges():
        name = _prom_name(gauge.name)
        header(name, "gauge")
        lines.append(f"{name}{_prom_labels(gauge.labels)} {_fmt(gauge.value)}")
    for hist in tel.registry.histograms():
        name = _prom_name(hist.name)
        header(name, "histogram")
        cumulative = 0
        for idx, bound in enumerate(hist.bounds):
            cumulative += hist.counts[idx]
            labels = hist.labels + (("le", _fmt(bound)),)
            lines.append(f"{name}_bucket{_prom_labels(labels)} {cumulative}")
        labels = hist.labels + (("le", "+Inf"),)
        lines.append(f"{name}_bucket{_prom_labels(labels)} {hist.count}")
        lines.append(f"{name}_sum{_prom_labels(hist.labels)} {_fmt(hist.sum)}")
        lines.append(f"{name}_count{_prom_labels(hist.labels)} {hist.count}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_report(tel: Telemetry, top: int = 10) -> str:
    """Human ``top``-style report: layer breakdowns, hottest spans,
    lock contention. Uses :func:`repro.inspect.render_breakdown` for
    the fig13 tables so telemetry and debug dumps share one look."""
    from repro.inspect import render_breakdown  # lazy: inspect pulls core

    total_ns = tel.total_ns()
    total_bytes = tel.total_bytes()
    parts: List[str] = []

    parts.append("== per-layer virtual time ==")
    parts.append(render_breakdown(attribution.time_breakdown(tel), total_ns, unit="ns"))

    parts.append("")
    parts.append("== per-layer device writes ==")
    parts.append(
        render_breakdown(attribution.write_breakdown(tel), float(total_bytes), unit="bytes")
    )

    rows = attribution.span_table(tel)[:top]
    parts.append("")
    parts.append(f"== hottest spans (top {len(rows)} by self time) ==")
    if rows:
        parts.append(
            f"{'span':<24}{'count':>8}{'self us':>12}{'incl us':>12}{'self bytes':>14}"
        )
        for name, count, self_ns, incl_ns, self_bytes in rows:
            parts.append(
                f"{name:<24}{count:>8}{self_ns / 1e3:>12.1f}"
                f"{incl_ns / 1e3:>12.1f}{self_bytes:>14,}"
            )
    else:
        parts.append("(no spans recorded)")

    locks = attribution.lock_contention(tel, top=top)
    parts.append("")
    parts.append("== lock contention ==")
    if locks:
        parts.append(f"{'lock':<32}{'blocked':>10}{'wait us':>12}")
        for key, blocked, wait_ns in locks:
            parts.append(f"{key:<32}{blocked:>10}{wait_ns / 1e3:>12.1f}")
    else:
        parts.append("(no simulated lock waits)")
    return "\n".join(parts)
