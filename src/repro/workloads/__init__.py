"""Workload generators: FIO, Mobibench, TPC-C."""

from repro.workloads.fio import FioJob, FioResult, run_fio
from repro.workloads.mobibench import MobibenchResult, run_mobibench
from repro.workloads.tpcc import TpccResult, run_tpcc

__all__ = [
    "FioJob",
    "FioResult",
    "MobibenchResult",
    "TpccResult",
    "run_fio",
    "run_mobibench",
    "run_tpcc",
]
