"""Black-box bundles: self-contained JSON diagnoses of one failure.

When a failure detector trips — a crashsweep invariant violation, a
``repro.infer`` true bug, an analyzer strict finding, a service-layer
tenant error — it normally prints a verdict and discards the history
that explains it. :func:`capture` re-runs the failing workload
deterministically with a flight recorder and telemetry attached, crashes
it at the reported event index, and packages everything a post-mortem
needs into one JSON dict:

- identity: workload, config, seed, crash policy / persisted-word set;
- the exact ``--at N`` reproducer command;
- the tail of the flight-recorder ring (device events with their
  span/op context, lock traffic, protocol steps);
- the held-lock table and metric snapshot at the crash point;
- a digest of the composed crash image plus the device traffic counters.

Because workloads are seed-deterministic and the flight recorder is
provably non-perturbing, the re-run reproduces the original failure
exactly — the bundle is evidence, not approximation. Everything in the
bundle is virtual-time data; two captures of the same failure are
byte-identical (no wall clocks, no ambient randomness).

``python -m repro.obs postmortem BUNDLE`` consumes these bundles (see
:mod:`repro.obs.postmortem`).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Sequence

from repro.nvm.crash import CrashPlan, CrashPolicy, policy_words

from repro.obs.flight import attach_flight
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import attach_telemetry

BLACKBOX_VERSION = 1

#: word-list cap: bundles stay readable even when a crash point leaves
#: thousands of unfenced words in flight
MAX_WORDS = 512


def _word_list(words: Sequence[int]) -> Dict[str, object]:
    ordered = sorted(int(w) for w in words)
    return {
        "count": len(ordered),
        "words": ordered[:MAX_WORDS],
        "truncated": len(ordered) > MAX_WORDS,
    }


def crash_verdict(workload, config_name: str, crash_after: int, policy: Optional[str],
                  seed: int, persist_words: Optional[Sequence[int]] = None, instrument=None):
    """Re-run *workload* crashed after *crash_after* events, keep an
    explicit surgical word set when given (else the policy's
    deterministic choice), compose that crash image and check it if the
    run crashed. Returns ``(outcome, kept, dropped, image, violations)``."""
    from repro.crashsweep.sweep import PERSIST_PROBABILITY, point_seed

    outcome = workload.run(config_name, CrashPlan(crash_after), instrument=instrument)
    device = outcome.fs.device
    candidates = set(device.unfenced_words())
    if persist_words is not None:
        kept = sorted(set(int(w) for w in persist_words) & candidates)
    else:
        pol = CrashPolicy(policy) if policy is not None else CrashPolicy.DROP_ALL
        kept = policy_words(device, pol, point_seed(seed, crash_after), PERSIST_PROBABILITY)
    image = device.crash_image(persist_words=kept)
    violations = []
    if outcome.crashed:
        violations = list(workload.check(image, config_name, outcome.oracles))
    return outcome, kept, sorted(candidates - set(kept)), image, violations


def capture(
    workload_name: str,
    config_name: str,
    crash_after: int,
    seed: int = 0,
    policy: Optional[CrashPolicy] = None,
    persist_words: Optional[Sequence[int]] = None,
    kind: str = "crashsweep-failure",
    violations: Sequence[str] = (),
    reproducer: Optional[str] = None,
    capacity: int = 256,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Deterministically re-run *workload_name* to the crash point and
    assemble the black-box bundle.

    Either *policy* (a standard crashsweep policy) or *persist_words*
    (a surgical keep-set, e.g. from ``repro.infer``) selects the crash
    image; with neither, DROP_ALL is assumed.
    """
    from repro.crashsweep.sweep import reproducer as at_reproducer
    from repro.crashsweep.workloads import get_workload

    def instrument(system):
        return (
            attach_telemetry(system, registry=MetricsRegistry()),
            attach_flight(system, capacity=capacity),
        )

    policy_value = policy.value if policy is not None else None
    outcome, kept, dropped, image, found = crash_verdict(
        get_workload(workload_name), config_name, crash_after, policy_value, seed,
        persist_words=persist_words, instrument=instrument,
    )
    telemetry, flight = outcome.attached
    device = outcome.fs.device
    if reproducer is None:
        reproducer = at_reproducer(
            workload_name, config_name, policy_value or CrashPolicy.DROP_ALL.value,
            crash_after, seed,
        )

    bundle: Dict[str, object] = {
        "blackbox_version": BLACKBOX_VERSION,
        "kind": kind,
        "workload": workload_name,
        "config": config_name,
        "seed": seed,
        "policy": policy_value,
        "crash_after": crash_after,
        "crashed": outcome.crashed,
        "fired_kind": outcome.plan.fired_kind if outcome.plan is not None else None,
        "persist_words": (
            sorted(int(w) for w in persist_words) if persist_words is not None else None
        ),
        "kept_words": _word_list(kept),
        "dropped_words": _word_list(dropped),
        "violations": list(violations) or found,
        "violations_reproduced": found,
        "reproducer": reproducer,
        "image_sha256": hashlib.sha256(image).hexdigest(),
        "device": {
            "name": device.name,
            "size": device.size,
            "stats": {k: v for k, v in sorted(vars(device.stats).items())},
            "stats_since_setup": {
                k: v
                for k, v in sorted(vars(device.stats.delta(outcome.stats_base)).items())
            },
        },
        "metrics": telemetry.registry.snapshot(),
        "held_locks": flight.held_locks_snapshot(),
        "flight": flight.snapshot(),
    }
    if extra:
        bundle.update(extra)
    return bundle


def bundle_name(bundle: Dict[str, object]) -> str:
    """Deterministic file name for one bundle."""
    policy = bundle.get("policy") or "surgical"
    return (
        f"blackbox-{bundle['kind']}-{bundle['workload']}-{bundle['config']}"
        f"-{policy}-at{bundle['crash_after']}.json"
    )


def render(bundle: Dict[str, object]) -> str:
    """Byte-deterministic JSON for one bundle."""
    return json.dumps(bundle, indent=2, sort_keys=True) + "\n"


def write_bundle(bundle: Dict[str, object], directory: str,
                 name: Optional[str] = None) -> str:
    """Write one bundle under *directory* (created if needed); returns
    the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name or bundle_name(bundle))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(bundle))
    return path


def load_bundle(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def service_error_bundle(service, shard: int, tenant: str, request,
                         exc: BaseException) -> Dict[str, object]:
    """Bundle one service-layer tenant error in place.

    Unlike :func:`capture` this does not re-run anything — the service
    is mid-dispatch when the error fires, so the live shard state (its
    flight-recorder tail, held locks, device counters, registry
    snapshot) *is* the evidence."""
    fs = service.shards[shard]
    device = fs.device
    flight = None
    flights = getattr(service, "flights", None)
    if flights and shard < len(flights):
        flight = flights[shard]
    session = service.sessions.get(tenant)
    bundle: Dict[str, object] = {
        "blackbox_version": BLACKBOX_VERSION,
        "kind": "service-error",
        "shard": shard,
        "shards": service.config.shards,
        "tenant": tenant,
        "tenant_thread": session.thread if session is not None else None,
        "request": {
            "kind": request.kind,
            "offset": request.offset,
            "nbytes": request.nbytes,
            "arrival_ns": request.arrival_ns,
        },
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "device": {
            "name": device.name,
            "size": device.size,
            "stats": {k: v for k, v in sorted(vars(device.stats).items())},
        },
        "metrics": service.registry.snapshot(),
        "held_locks": flight.held_locks_snapshot() if flight is not None else [],
        "flight": flight.snapshot() if flight is not None else None,
        "reproducer": (
            f"python -m repro.service --tenants {len(service.sessions)}"
            f" --shards {service.config.shards}"
        ),
    }
    return bundle


def capture_failure(failure, capacity: int = 256,
                    kind: str = "crashsweep-failure") -> Dict[str, object]:
    """Bundle one :class:`repro.crashsweep.sweep.Failure`."""
    return capture(
        failure.workload,
        failure.config_name,
        failure.crash_after,
        seed=failure.seed,
        policy=failure.policy,
        kind=kind,
        violations=failure.violations,
        reproducer=failure.reproducer,
        capacity=capacity,
        extra={
            "minimized_words": (
                sorted(failure.minimized_words)
                if failure.minimized_words is not None
                else None
            )
        },
    )
