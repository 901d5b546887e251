"""The sweep driver: census → sample → capture → check → minimize.

For every (workload, config) pair the driver runs one census to count
persistence events and samples crash indices within the budget. One
capture run then visits every sampled index through an
:class:`~repro.nvm.crash.EventCounter`, before that event is applied:
the live device holds exactly what a crash there leaves (its durable
image is ``working`` with the undo log of unfenced stores undone) and
the oracles are in the crashed state, so each :class:`CrashPolicy`
image is composed from it, checked on a new device, and a failing one
is minimized there and then; the run goes on to the next index. Two
runs per unit, however many points — no per-point re-execution. An
index the run never reaches is reported as a failure after it.

Failures carry a fully deterministic reproducer: the (workload, config,
policy, crash index, seed) tuple pins the exact image, and a greedy
word-subset minimizer shrinks the persisted-word set to a locally
minimal failing core so the reproducer is also *small*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.nvm.crash import CrashPolicy, EventCounter, compose_image, policy_words

from repro.crashsweep.census import Census, sample_points, take_census
from repro.crashsweep.workloads import CONFIGS, WORKLOADS, get_workload

POLICIES = (CrashPolicy.DROP_ALL, CrashPolicy.KEEP_ALL, CrashPolicy.RANDOM)
PERSIST_PROBABILITY = 0.5


def point_seed(seed: int, crash_after: int) -> int:
    """The RANDOM-policy seed for one crash index, derived so a failure
    report's (sweep seed, index) pair replays the identical image."""
    return seed * 1_000_003 + crash_after


def reproducer(workload: str, config: str, policy: str, crash_after: int, seed: int) -> str:
    """The ``--at`` command line that replays one crash image."""
    return (
        f"python -m repro.crashsweep --workload {workload} --configs {config}"
        f" --policies {policy} --at {crash_after} --seed {seed}"
    )


@dataclass
class Failure:
    workload: str
    config_name: str
    policy: CrashPolicy
    crash_after: int
    seed: int
    fired_kind: Optional[str]
    violations: List[str]
    #: locally minimal persisted-word set that still fails (None when
    #: minimization is off or the failing set was already empty)
    minimized_words: Optional[List[int]] = None

    @property
    def reproducer(self) -> str:
        return reproducer(
            self.workload, self.config_name, self.policy.value, self.crash_after, self.seed
        )


@dataclass
class UnitReport:
    """One (workload, config) sweep."""

    census: Census
    points: List[int]
    images_checked: int = 0
    failures: List[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.census.parity_ok and not self.failures


@dataclass
class SweepReport:
    units: List[UnitReport] = field(default_factory=list)

    @property
    def points_swept(self) -> int:
        return sum(len(u.points) for u in self.units)

    @property
    def images_checked(self) -> int:
        return sum(u.images_checked for u in self.units)

    @property
    def failures(self) -> List[Failure]:
        return [f for u in self.units for f in u.failures]

    @property
    def parity_failures(self) -> List[Census]:
        return [u.census for u in self.units if not u.census.parity_ok]

    @property
    def ok(self) -> bool:
        return all(u.ok for u in self.units)


def minimize_failure(
    device,
    config_name: str,
    oracles: Dict[str, object],
    chosen: Sequence[int],
    checker,
    idempotence: bool = True,
) -> List[int]:
    """Greedy 1-minimal shrink of a failing persisted-word set: drop each
    word whose removal keeps the image failing under ``checker`` (the
    workload's ``check``). O(n) recoveries."""
    words = list(chosen)
    i = 0
    while i < len(words):
        trial = words[:i] + words[i + 1 :]
        image = device.crash_image(persist_words=trial)
        if checker(image, config_name, oracles, idempotence=idempotence):
            words = trial
        else:
            i += 1
    return words


def sweep_unit(
    workload_name: str,
    config_name: str,
    policies: Sequence[CrashPolicy] = POLICIES,
    budget: int = 200,
    seed: int = 0,
    idempotence: bool = True,
    minimize: bool = True,
    points: Optional[Iterable[int]] = None,
    progress=None,
) -> UnitReport:
    """Sweep one (workload, config) pair: a census run, then one capture
    run that checks every point as the live device reaches it.
    ``points`` overrides sampling (``--at`` replays one reported index)."""
    workload = get_workload(workload_name)
    census = take_census(workload, config_name)
    if points is None:
        points = sample_points(census.events, budget, seed)
    report = UnitReport(census=census, points=sorted(set(points)))

    def visit(kind: str) -> None:
        crash_after = capture.count - 1
        outcome = capture.context
        device = outcome.fs.device
        image_seed = point_seed(seed, crash_after)
        for policy in policies:
            image = compose_image(device, policy, image_seed, PERSIST_PROBABILITY)
            report.images_checked += 1
            violations = workload.check(image, config_name, outcome.oracles, idempotence)
            if not violations:
                continue
            failure = Failure(
                workload_name, config_name, policy, crash_after, seed, kind, violations
            )
            chosen = policy_words(device, policy, image_seed, PERSIST_PROBABILITY)
            if minimize and chosen:
                failure.minimized_words = minimize_failure(
                    device, config_name, outcome.oracles, chosen, workload.check, idempotence
                )
            report.failures.append(failure)
        done = report.points.index(crash_after) + 1
        if progress is not None and done % 50 == 0:
            progress(workload_name, config_name, done, len(report.points))

    capture = EventCounter(report.points, visit)
    workload.run(config_name, capture)
    for crash_after in report.points:
        if crash_after >= capture.count:
            never = f"enumerated crash point {crash_after} never fired"
            report.failures.append(Failure(
                workload_name, config_name, CrashPolicy.DROP_ALL, crash_after, seed, None,
                [f"{never} (census counted {census.events} events)"],
            ))
    return report


def sweep(
    workloads: Optional[Sequence[str]] = None,
    configs: Optional[Sequence[str]] = None,
    policies: Sequence[CrashPolicy] = POLICIES,
    budget: int = 200,
    seed: int = 0,
    idempotence: bool = True,
    minimize: bool = True,
    progress=None,
) -> SweepReport:
    """Sweep every requested (workload, config) pair. Configs a workload
    does not support (``supported_configs``) are skipped, not erred —
    the non-MGSP backends have no sync/async knob."""
    report = SweepReport()
    for workload_name in workloads or sorted(WORKLOADS):
        supported = get_workload(workload_name).supported_configs
        for config_name in configs or sorted(CONFIGS):
            if config_name not in supported:
                continue
            report.units.append(sweep_unit(
                workload_name, config_name, policies, budget, seed, idempotence, minimize,
                progress=progress,
            ))
    return report
