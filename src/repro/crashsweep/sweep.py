"""The sweep driver: census → sample → crash → check → minimize.

For every (workload, config) pair the driver runs one census to count
persistence events, samples crash indices within the budget, re-runs the
workload once per index with an armed :class:`CrashPlan`, and checks
every :class:`CrashPolicy` image of the crashed device against the
invariant checker. The three policies share one crashed run — they only
differ in which unfenced words the composed image keeps.

Failures carry a fully deterministic reproducer: the (workload, config,
policy, crash index, seed) tuple pins the exact image, and a greedy
word-subset minimizer shrinks the persisted-word set to a locally
minimal failing core so the reproducer is also *small*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.nvm.crash import CrashPlan, CrashPolicy, compose_image, policy_words

from repro.crashsweep.census import Census, sample_points, take_census
from repro.crashsweep.workloads import CONFIGS, WORKLOADS, get_workload

POLICIES = (CrashPolicy.DROP_ALL, CrashPolicy.KEEP_ALL, CrashPolicy.RANDOM)
PERSIST_PROBABILITY = 0.5


def point_seed(seed: int, crash_after: int) -> int:
    """The RANDOM-policy seed for one crash index, derived so a failure
    report's (sweep seed, index) pair replays the identical image."""
    return seed * 1_000_003 + crash_after


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
        return (
            f"python -m repro.crashsweep --workload {self.workload}"
            f" --configs {self.config_name} --policies {self.policy.value}"
            f" --at {self.crash_after} --seed {self.seed}"
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
    def events(self) -> int:
        return sum(u.census.events for u in self.units)

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
    """Sweep one (workload, config) pair. ``points`` overrides sampling
    (used by ``--at`` to replay a single reported crash index)."""
    workload = get_workload(workload_name)
    census = take_census(workload, config_name)
    if points is None:
        points = sample_points(census.events, budget, seed)
    report = UnitReport(census=census, points=list(points))

    for n, crash_after in enumerate(report.points):
        outcome = workload.run(config_name, CrashPlan(crash_after))
        if not outcome.crashed:
            report.failures.append(
                Failure(
                    workload=workload_name,
                    config_name=config_name,
                    policy=CrashPolicy.DROP_ALL,
                    crash_after=crash_after,
                    seed=seed,
                    fired_kind=None,
                    violations=[
                        f"enumerated crash point {crash_after} never fired "
                        f"(census counted {census.events} events)"
                    ],
                )
            )
            continue
        device = outcome.fs.device
        for policy in policies:
            image_seed = point_seed(seed, crash_after)
            image = compose_image(
                device, policy, seed=image_seed, persist_probability=PERSIST_PROBABILITY
            )
            report.images_checked += 1
            violations = workload.check(
                image, config_name, outcome.oracles, idempotence=idempotence
            )
            if not violations:
                continue
            failure = Failure(
                workload=workload_name,
                config_name=config_name,
                policy=policy,
                crash_after=crash_after,
                seed=seed,
                fired_kind=outcome.plan.fired_kind,
                violations=violations,
            )
            if minimize:
                chosen = policy_words(device, policy, image_seed, PERSIST_PROBABILITY)
                if chosen:
                    failure.minimized_words = minimize_failure(
                        device,
                        config_name,
                        outcome.oracles,
                        chosen,
                        idempotence=idempotence,
                        checker=workload.check,
                    )
            report.failures.append(failure)
        if progress is not None and (n + 1) % 50 == 0:
            progress(workload_name, config_name, n + 1, len(report.points))
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
            report.units.append(
                sweep_unit(
                    workload_name,
                    config_name,
                    policies=policies,
                    budget=budget,
                    seed=seed,
                    idempotence=idempotence,
                    minimize=minimize,
                    progress=progress,
                )
            )
    return report
