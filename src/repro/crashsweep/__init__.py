"""Systematic crash-state exploration for MGSP (WITCHER-style).

Hand-picked crash indices find the bugs you already suspect; this
package finds the rest by construction:

- :mod:`~repro.crashsweep.census` runs a workload once to count every
  persistence event (per element inside vectorized device ops) and
  proves the count matches what an armed plan would see;
- :mod:`~repro.crashsweep.workloads` is the registry of deterministic
  drivers (one file-stream driver for MGSP, NOVA and Libnvmmio,
  transactional, YCSB/KV, the durable queue), each judged by the oracle
  of its consistency level — per-op, commit-group, fsync byte-wise,
  queue abstract state or structural only;
- :mod:`~repro.crashsweep.invariants` mounts each crash image through
  recovery and checks the §III-D contract, including that recovery
  itself is an idempotent fixpoint, and holds the one content check
  every file subject shares;
- :mod:`~repro.crashsweep.sweep` drives the whole loop, crashing at
  every sampled index under every :class:`~repro.nvm.crash.CrashPolicy`
  and shrinking failures to minimal seeded reproducers.

CLI::

    python -m repro.crashsweep --workload fio-randwrite --budget 500
"""

from repro.crashsweep.census import Census, sample_points, take_census
from repro.crashsweep.invariants import check_image, pending_entries
from repro.crashsweep.sweep import (
    POLICIES,
    Failure,
    SweepReport,
    UnitReport,
    minimize_failure,
    point_seed,
    sweep,
    sweep_unit,
)
from repro.crashsweep.workloads import (
    CONFIGS,
    WORKLOADS,
    FileOracle,
    RunOutcome,
    SweepWorkload,
    get_workload,
    make_config,
)

__all__ = [
    "CONFIGS",
    "Census",
    "Failure",
    "FileOracle",
    "POLICIES",
    "RunOutcome",
    "SweepReport",
    "SweepWorkload",
    "UnitReport",
    "WORKLOADS",
    "check_image",
    "get_workload",
    "make_config",
    "minimize_failure",
    "pending_entries",
    "point_seed",
    "sample_points",
    "sweep",
    "sweep_unit",
    "take_census",
]
