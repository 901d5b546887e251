"""The one definition of every paper experiment.

`run_all()` is the equivalent of the artifact's ``run_all.sh``: it
executes each experiment and returns rendered tables; the CLI
(``python -m repro.bench``) writes them to a report file. The
paper-shape assertions under ``benchmarks/`` run these same functions
(``EXPERIMENTS[name]()``), so what the CLI prints is what they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.bench.harness import Table, run_one
from repro.bench.registry import FS_NAMES, make_fs
from repro.core import MgspConfig
from repro.util import fmt_size
from repro.workloads.fio import FioJob
from repro.workloads.mobibench import run_mobibench
from repro.workloads.tpcc import run_tpcc

FSIZE = 16 << 20

#: Fig 7 extension beyond the paper: MGSP with asynchronous write-back
#: epochs (background checkpoint drains every 256 KB of fresh log).
ASYNC_CONFIG = MgspConfig(async_writeback=True, writeback_epoch_bytes=256 << 10)


def fig01(nops: int = 300) -> Table:
    table = Table(title="Fig 1 — 4KB write MB/s under sync requirements")
    for name in ("Ext4-wb", "Ext4-ordered", "Ext4-journal", "Ext4-DAX", "Libnvmmio", "MGSP"):
        for label, fsync in (("no-sync", 0), ("sync", 1)):
            job = FioJob(op="write", bs=4096, fsize=FSIZE, fsync=fsync, nops=nops)
            table.set(name, label, run_one(name, job).throughput_mb_s)
    return table


def fig07(nops: int = 300) -> Table:
    table = Table(title="Fig 7 — 4KB seq write MB/s vs sync interval")
    intervals = ((1, "fsync-1"), (10, "fsync-10"), (100, "fsync-100"), (0, "no-sync"))
    for name in FS_NAMES:
        for interval, label in intervals:
            job = FioJob(op="write", bs=4096, fsize=FSIZE, fsync=interval, nops=nops)
            table.set(name, label, run_one(name, job).throughput_mb_s)
    for interval, label in intervals:
        job = FioJob(op="write", bs=4096, fsize=FSIZE, fsync=interval, nops=nops)
        table.set("MGSP-async", label, run_one("MGSP", job, mgsp_config=ASYNC_CONFIG).throughput_mb_s)
    return table


def fig08(op: str, nops: int = 300) -> Table:
    table = Table(title=f"Fig 8 — {op} MB/s by block size (fsync per op)")
    for bs in (512, 1024, 2048, 4096, 16384, 65536):
        job = FioJob(op=op, bs=bs, fsize=FSIZE, fsync=1, nops=nops)
        for name in FS_NAMES:
            table.set(name, fmt_size(bs), run_one(name, job).throughput_mb_s)
    return table


def fig09(nops: int = 300) -> Table:
    table = Table(title="Fig 9 — 4KB mixed rw normalized to Ext4-DAX")
    for ratio in (0.1, 0.3, 0.5, 0.7, 0.9):
        col = f"{int(ratio * 100)}%w"
        base = None
        for name in FS_NAMES:
            job = FioJob(op="randrw", bs=4096, fsize=FSIZE, fsync=1, write_ratio=ratio, nops=nops)
            mbps = run_one(name, job).throughput_mb_s
            if name == "Ext4-DAX":
                base = mbps
            table.set(name, col, f"{mbps / base:.2f}")
    return table


def fig10(op: str, bs: int, ops_per_thread: int = 150) -> Table:
    table = Table(title=f"Fig 10 — {op} bs={fmt_size(bs)} MB/s by threads")
    for name in FS_NAMES:
        for threads in (1, 2, 4, 8, 16):
            job = FioJob(
                op=op, bs=bs, fsize=FSIZE, fsync=1, threads=threads,
                nops=ops_per_thread * threads,
            )
            table.set(name, f"t{threads}", run_one(name, job).throughput_mb_s)
    return table


def fig11(journal_mode: str, transactions: int = 150) -> Table:
    table = Table(title=f"Fig 11 — Mobibench tx/s (journal={journal_mode})")
    for name in FS_NAMES:
        for mode in ("insert", "update", "delete"):
            fs = make_fs(name, device_size=96 << 20)
            result = run_mobibench(fs, mode=mode, journal_mode=journal_mode, transactions=transactions)
            table.set(name, mode, result.tx_per_sec)
    return table


def fig12(journal_mode: str, transactions: int = 120) -> Table:
    table = Table(title=f"Fig 12 — TPC-C tpm (journal={journal_mode})")
    for name in FS_NAMES:
        fs = make_fs(name, device_size=192 << 20)
        table.set(name, "tpm", run_tpcc(fs, journal_mode=journal_mode, transactions=transactions).tpm)
    return table


def tab02(nops: int = 300) -> Table:
    table = Table(title="Table II — random-write amplification")
    for bs in (1024, 4096, 16384):
        for fs_name, fsync, row in (
            ("Libnvmmio", 1, "Libnvmmio"),
            ("Libnvmmio", 100, "Libnvmmio-100"),
            ("Libnvmmio", 0, "Libnvmmio-wo-sync"),
            ("MGSP", 1, "MGSP"),
        ):
            job = FioJob(op="randwrite", bs=bs, fsize=FSIZE, fsync=fsync, nops=nops)
            table.set(row, fmt_size(bs), f"{run_one(fs_name, job).write_amplification:.3f}")
    return table


def fig13(nops: int = 200) -> Table:
    table = Table(title="Fig 13 — technique stack, speedup over Ext4-DAX")
    stack = (
        ("base", MgspConfig.baseline()),
        ("+shadow", MgspConfig.baseline().with_shadow_logging()),
        ("+multigran", MgspConfig.baseline().with_shadow_logging().with_multi_granularity()),
        ("+finelock",
         MgspConfig.baseline().with_shadow_logging().with_multi_granularity().with_fine_locking()),
        ("+opts",
         MgspConfig.baseline().with_shadow_logging().with_multi_granularity()
         .with_fine_locking().with_optimizations()),
    )
    for bs, threads in ((1024, 1), (2048, 2), (4096, 4)):
        col = f"{fmt_size(bs)}/{threads}t"
        job = FioJob(op="write", bs=bs, fsize=FSIZE, fsync=1, threads=threads, nops=nops * threads)
        base = run_one("Ext4-DAX", job).throughput_mb_s
        for label, config in stack:
            mbps = run_one("MGSP", job, mgsp_config=config).throughput_mb_s
            table.set(label, col, f"{mbps / base:.2f}")
    return table


@dataclass
class RecoveryResult:
    """The §III-D recovery experiment's numbers; ``str()`` is the report."""

    file_size: int
    writes_before_crash: int
    entries_replayed: int
    log_bytes_written_back: int
    recovery_ms: float

    def __str__(self) -> str:
        return (
            "Recovery (§III-D)\n"
            f"  writes before crash : {self.writes_before_crash:,}\n"
            f"  entries replayed    : {self.entries_replayed}\n"
            f"  log bytes written   : {self.log_bytes_written_back:,}\n"
            f"  virtual time        : {self.recovery_ms:.2f} ms "
            f"(file {fmt_size(self.file_size)})"
        )


def recovery_experiment(file_size: int = 64 << 20) -> RecoveryResult:
    from repro.core import MgspFilesystem, recover
    from repro.errors import CrashRequested
    from repro.nvm.crash import CrashPlan
    from repro.nvm.device import NvmDevice

    config = MgspConfig()
    fs = MgspFilesystem(device_size=4 * file_size, config=config)
    f = fs.create("big.dat", capacity=file_size)
    # analysis: allow(raw-store-outside-protocol) -- prefill of pre-existing file content, not measured traffic
    fs.device.buffer.store(f.inode.base, b"\x11" * file_size)
    fs.device.buffer.drain()
    fs.volume.set_size(f.inode, file_size)
    rng = random.Random(17)
    fs.device.attach(CrashPlan(crash_after=60_000))
    writes = 0
    try:
        while True:
            f.write(rng.randrange(0, file_size // 4096) * 4096, b"\x22" * 4096)
            writes += 1
    except CrashRequested:
        pass
    image = fs.device.crash_image(rng=random.Random(3))
    _, stats = recover(NvmDevice.from_image(image), config=config)
    return RecoveryResult(
        file_size=file_size,
        writes_before_crash=writes,
        entries_replayed=stats.entries_replayed,
        log_bytes_written_back=stats.log_bytes_written_back,
        recovery_ms=stats.elapsed_ns / 1e6,
    )


EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "fig01": fig01,
    "fig07": fig07,
    "fig08-write": lambda: fig08("write"),
    "fig08-randwrite": lambda: fig08("randwrite"),
    "fig08-read": lambda: fig08("read"),
    "fig08-randread": lambda: fig08("randread"),
    "fig09": fig09,
    "fig10-1k": lambda: fig10("write", 1024),
    "fig10-4k": lambda: fig10("write", 4096),
    "fig10-16k": lambda: fig10("write", 16384),
    "fig11-wal": lambda: fig11("wal"),
    "fig11-off": lambda: fig11("off"),
    "fig12-wal": lambda: fig12("wal"),
    "fig12-off": lambda: fig12("off"),
    "tab02": tab02,
    "fig13": fig13,
    "recovery": recovery_experiment,
}


def run_all(names: Optional[List[str]] = None, progress: Optional[Callable[[str], None]] = None):
    """Run the selected (default: all) experiments; yields (name, text)."""
    for name in names or list(EXPERIMENTS):
        if name not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {name!r}; choices: {sorted(EXPERIMENTS)}")
        if progress:
            progress(name)
        result = EXPERIMENTS[name]()
        yield name, str(result)
