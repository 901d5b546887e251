"""Crash injection.

A :class:`CrashPlan` attached to a device (``device.attach(plan)``)
counts persistence events (stores, flushes, fences) and raises
:class:`~repro.errors.CrashRequested` when the configured event index
is reached. Tests catch the exception,
compose a crash image, and run recovery against it.

:func:`count_events` enumerates the crash points a workload exposes and
is exact: it is derived from the same per-call counters the plan's
``on_event`` hook fires in (``stores``/``flush_calls``/``fences``), so a
sweep over ``crash_after in range(count_events(...))`` visits every
event once — including the events emitted per element inside the
vectorized ``store_v``/``nt_store_v``/``flush_v``/``store_word_v``
device entry points.

:func:`compose_image` turns a crashed device plus a :class:`CrashPolicy`
into a concrete post-crash image; :func:`policy_words` is the one
statement of which unfenced words a policy keeps. ``RANDOM`` is driven
by an explicit seed so any sampled image can be reproduced exactly from
the ``(workload, crash_after, policy, seed)`` tuple a sweep reports.
"""

from __future__ import annotations

import enum
import random
from typing import List, Optional, Set

from repro.errors import CrashRequested
from repro.nvm.cache import choose_persist_words


class CrashPolicy(enum.Enum):
    """How unfenced words behave at the crash point."""

    DROP_ALL = "drop_all"  # nothing unfenced persists (lazy cache)
    KEEP_ALL = "keep_all"  # every dirty line was evicted just in time
    RANDOM = "random"  # each word flips a coin


class CrashPlan:
    """Fire a crash after the N-th persistence event of the chosen kinds."""

    def __init__(
        self,
        crash_after: int,
        kinds: Optional[Set[str]] = None,
    ) -> None:
        if crash_after < 0:
            raise ValueError("crash_after must be >= 0")
        self.crash_after = crash_after
        self.kinds = kinds or {"store", "flush", "fence"}
        self.count = 0
        self.fired = False
        self.fired_kind: Optional[str] = None

    def on_event(self, kind: str) -> None:
        if self.fired or kind not in self.kinds:
            return
        self.count += 1
        if self.count > self.crash_after:
            self.fired = True
            self.fired_kind = kind
            raise CrashRequested(f"crash injected after {self.crash_after} events")

    def on_batch(self, n: int, kinds) -> bool:
        """Consume *n* events of each kind in *kinds* with one addition
        (a negative *n* hands a batch back). False — and nothing is
        consumed — when the crash point lies inside the batch: the
        device then replays it per element through :meth:`on_event`."""
        if self.fired:
            return True
        total = 0
        for kind in kinds:
            if kind in self.kinds:
                total += n
        if self.count + total > self.crash_after:
            return False
        self.count += total
        return True


#: A plan that counts every event but never fires: a census run's
#: ``plan.count`` is the exact number of crash points, tallied by the
#: same hooks an armed run fires in.
def counting_plan(kinds: Optional[Set[str]] = None) -> CrashPlan:
    return CrashPlan(crash_after=(1 << 62), kinds=kinds)


def count_events(device, kinds: Optional[Set[str]] = None, since=None) -> int:
    """Number of persistence events a workload generated, derived from
    the device's counters; used to enumerate crash points.

    ``flush`` events are counted with ``stats.flush_calls`` — one per
    clwb *call*, exactly how :meth:`CrashPlan.on_event` fires (the old
    ``flushed_lines`` proxy over- or under-counted whenever a flush
    covered several lines or hit only clean ones). With ``since`` (a
    ``DeviceStats`` snapshot) only events after the snapshot count.
    """
    kinds = kinds or {"store", "flush", "fence"}
    stats = device.stats if since is None else device.stats.delta(since)
    total = 0
    if "store" in kinds:
        total += stats.stores
    if "flush" in kinds:
        total += stats.flush_calls
    if "fence" in kinds:
        total += stats.fences
    return total


def policy_words(
    device,
    policy: CrashPolicy,
    seed: int = 0,
    persist_probability: float = 0.5,
) -> List[int]:
    """The unfenced words of *device* that *policy* keeps, ascending.

    ``RANDOM`` flips ``random.Random(seed)``'s coin per candidate in
    order — never ambient randomness — so the choice is a pure function
    of (device state, policy, seed): the sweep's minimizer and a
    black-box bundle name exactly the words the image kept.
    """
    if policy is CrashPolicy.DROP_ALL:
        return []
    candidates = device.unfenced_words()
    if policy is CrashPolicy.KEEP_ALL:
        return list(candidates)
    return choose_persist_words(candidates, random.Random(seed), persist_probability)


def compose_image(
    device,
    policy: CrashPolicy,
    seed: int = 0,
    persist_probability: float = 0.5,
) -> bytes:
    """Compose the post-crash image of *device* under *policy*: its
    durable content plus :func:`policy_words`, so a failing sweep sample
    can be replayed from its reported seed."""
    return device.crash_image(
        persist_words=policy_words(device, policy, seed, persist_probability))
