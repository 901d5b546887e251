"""Simulated byte-addressable non-volatile memory.

This package replaces the Intel Optane DC PMEM + x86 persistence
instructions the paper runs on. The model:

- Stores land in a volatile :class:`~repro.nvm.cache.StoreBuffer`
  (the CPU cache); loads always see the latest store.
- ``flush`` (clwb) marks lines as queued for write-back; ``fence``
  (sfence) makes queued lines durable.
- On a crash, the durable image survives, plus an *arbitrary* subset of
  unfenced 8-byte words (cache lines can be evicted at any time), so a
  correct protocol must tolerate any such subset.
- 8-byte aligned stores are atomic; anything larger can tear at word
  boundaries.
"""

from repro.nvm.allocator import LogAllocator
from repro.nvm.cache import StoreBuffer
from repro.nvm.crash import (
    CrashPlan,
    CrashPolicy,
    compose_image,
    count_events,
    counting_plan,
)
from repro.nvm.device import DeviceStats, NvmDevice
from repro.nvm.timing import OptaneTiming, TimingModel

__all__ = [
    "CrashPlan",
    "CrashPolicy",
    "DeviceStats",
    "LogAllocator",
    "NvmDevice",
    "OptaneTiming",
    "StoreBuffer",
    "TimingModel",
    "compose_image",
    "count_events",
    "counting_plan",
]
