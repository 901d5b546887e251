"""Attribution views over telemetry: fig13-style layer breakdowns.

Folds the raw span aggregates from :class:`repro.obs.spans.Telemetry`
into the paper's Figure-13 vocabulary — data write, log append,
checkpoint, metadata, lock, plus the syscall/mmio/txn/recovery layers
our reproduction adds — and produces:

- :func:`time_breakdown` — per-layer virtual nanoseconds whose values
  sum to the total elapsed virtual time **exactly** (the residual is
  reported as ``(unattributed)``);
- :func:`write_breakdown` — per-layer device bytes whose values sum to
  ``DeviceStats.stored_bytes`` exactly (byte meters are integers, so
  this is true equality, not within-rounding);
- :func:`lock_contention` — top-N lock keys by simulated wait time,
  from the replay engine's blocked-acquire reports.

Layer names, ordering, and the residual rule are the contract the CLI,
the bench breakdown sidecars, and the conservation tests share.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.flight import render_key
from repro.obs.spans import Telemetry

#: span-name prefix -> fig13 layer, first match wins (order matters:
#: more specific prefixes come first).
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("mgl.", "lock"),
    ("write.data", "data"),
    ("write.log", "log"),
    ("write.plan", "plan"),
    ("write.metadata", "metadata"),
    ("metalog.", "metadata"),
    ("checkpoint.", "checkpoint"),
    ("flusher.", "checkpoint"),
    ("txn.", "txn"),
    ("recovery.", "recovery"),
    ("mmio.", "mmio"),
    ("op.txn", "txn"),
    ("op.read", "read"),
    ("read.", "read"),
    ("op.checkpoint", "checkpoint"),
    ("op.close", "checkpoint"),
    ("op.", "syscall"),
)

#: canonical display order for layers (unknown layers sort after these,
#: alphabetically; the residual always comes last).
LAYER_ORDER: Tuple[str, ...] = (
    "data",
    "log",
    "checkpoint",
    "metadata",
    "lock",
    "plan",
    "txn",
    "mmio",
    "read",
    "syscall",
    "recovery",
)

UNATTRIBUTED = "(unattributed)"


def layer_of(span_name: str) -> str:
    """Map a span name to its fig13 layer (``other`` if unmatched)."""
    for prefix, layer in LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    return "other"


def _sort_layers(breakdown: Dict[str, float]) -> List[Tuple[str, float]]:
    rank = {name: idx for idx, name in enumerate(LAYER_ORDER)}
    tail = len(LAYER_ORDER)

    def key(item):
        name = item[0]
        if name == UNATTRIBUTED:
            return (tail + 1, name)
        return (rank.get(name, tail), name)

    return sorted(breakdown.items(), key=key)


def time_breakdown(tel: Telemetry) -> List[Tuple[str, float]]:
    """Per-layer virtual-ns, summing exactly to ``tel.total_ns()``.

    Span *self* time (inclusive minus nested spans) goes to the span's
    layer; virtual time outside any span — workload think time, setup,
    costs charged between spans — lands in ``(unattributed)``. The
    residual is computed as ``total - attributed`` so the sum over the
    returned values reconstructs the total by construction.
    """
    per_layer: Dict[str, float] = {}
    for name, stats in tel.spans.items():
        layer = layer_of(name)
        per_layer[layer] = per_layer.get(layer, 0.0) + stats.self_ns
    residual = tel.total_ns() - tel.attributed_ns()
    if residual or not per_layer:
        per_layer[UNATTRIBUTED] = residual
    return _sort_layers(per_layer)


def write_breakdown(tel: Telemetry) -> List[Tuple[str, int]]:
    """Per-layer device bytes, summing exactly to ``tel.total_bytes()``.

    Bytes are attributed by which span was innermost when the device
    counted them (span self bytes); bytes stored outside any span fall
    in ``(unattributed)``. Integer meters make the conservation exact.
    """
    per_layer: Dict[str, int] = {}
    for name, stats in tel.spans.items():
        layer = layer_of(name)
        per_layer[layer] = per_layer.get(layer, 0) + stats.self_bytes
    residual = tel.total_bytes() - tel.attributed_bytes()
    if residual or not per_layer:
        per_layer[UNATTRIBUTED] = residual
    return _sort_layers(per_layer)  # type: ignore[arg-type]


def conserved(tel: Telemetry) -> bool:
    """The conservation law the two breakdowns state: per-layer time
    sums to the elapsed total (within float rounding), per-layer bytes
    sum to the run's bytes exactly, and those equal the device's
    ``stored_bytes``."""
    ns_sum = sum(v for _, v in time_breakdown(tel))
    byte_sum = sum(v for _, v in write_breakdown(tel))
    return (
        abs(ns_sum - tel.total_ns()) <= 1e-6 * max(1.0, tel.total_ns())
        and byte_sum == tel.total_bytes()
        and tel.total_bytes() == tel.stored_bytes()
    )


def lock_contention(tel: Telemetry, top: int = 10) -> List[Tuple[str, int, float]]:
    """Top-*top* lock keys by total simulated wait time.

    Returns ``(key, blocked_acquires, total_wait_ns)`` rows, sorted by
    wait time descending then key (for deterministic output on ties).
    """
    rows = [
        (render_key(key), int(entry[0]), float(entry[1]))
        for key, entry in tel.lock_waits.items()
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows[:top]


def span_table(tel: Telemetry) -> List[Tuple[str, int, float, float, int]]:
    """Per-span rows ``(name, count, self_ns, total_ns, self_bytes)``,
    sorted by self time descending then name — the ``top``-style view."""
    rows = [
        (name, s.count, s.self_ns, s.total_ns, s.self_bytes)
        for name, s in tel.spans.items()
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows
