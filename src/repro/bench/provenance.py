"""Benchmark provenance stamps: make BENCH_*.json rows auditable.

Every benchmark export carries a ``provenance`` record tying the
numbers to what produced them:

- ``seed`` — the RNG seed the run was keyed off;
- ``config_digest`` — a short SHA-256 over the canonical JSON of the
  knobs that shaped the run (two exports with the same digest measured
  the same configuration, whatever produced the file);
- ``conservation`` — the telemetry self-check status at export time:
  ``"ok"`` when every attached :class:`~repro.obs.spans.Telemetry`
  satisfied the layer-sum conservation laws, ``"violated"`` when one
  did not, ``"disabled"`` when the run was intentionally untelemetered
  (wall-clock benchmarks null their recorders).

The stamp is deterministic — no timestamps, no hostnames — so adding
it keeps the byte-identical-export CI gates intact.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, Optional

#: hex chars of SHA-256 kept in the digest (collision-safe for a
#: benchmark config space, short enough to eyeball in diffs)
DIGEST_LEN = 12


def config_digest(config: Dict[str, object]) -> str:
    """Short deterministic digest of a benchmark's configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:DIGEST_LEN]


def conservation_status(telemetries: Iterable) -> str:
    """Fold the conservation self-check over every attached telemetry.

    The laws are the ones :mod:`repro.obs.attribution` guarantees:
    per-layer virtual time sums to the elapsed total, per-layer bytes
    sum to the device's stored bytes."""
    from repro.obs import attribution

    checked = False
    for tel in telemetries:
        if tel is None or not getattr(tel, "enabled", False):
            continue
        checked = True
        if not attribution.conserved(tel):
            return "violated"
    return "ok" if checked else "disabled"


def provenance(
    seed: int,
    config: Dict[str, object],
    telemetries: Optional[Iterable] = None,
    conservation: Optional[str] = None,
) -> Dict[str, object]:
    """The stamp itself. Pass *telemetries* to derive the conservation
    status, or *conservation* to state it directly (wall-clock suites
    that run untelemetered pass ``"disabled"``)."""
    if conservation is None:
        conservation = conservation_status(telemetries or ())
    return {
        "seed": seed,
        "config_digest": config_digest(config),
        "conservation": conservation,
    }
