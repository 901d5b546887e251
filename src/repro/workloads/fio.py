"""FIO-style micro-benchmark jobs.

Mirrors the parameter surface of the paper's ``run.sh``::

    run.sh fs op fsize bs fsync t_num write_ratio runtime ramptime

Execution is functional-with-cost-traces: single-thread throughput is
the sum of trace durations; multi-thread throughput replays the
per-thread traces through the lock/channel-aware engine (Fig 10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.fsapi.interface import FileSystem
from repro.obs.registry import percentile
from repro.sim.engine import ReplayEngine
from repro.sim.trace import OpTrace
PREFILL_CHUNK = 1 << 20


@dataclass
class FioJob:
    op: str = "write"  # write | randwrite | read | randread | rw | randrw
    fsize: int = 64 << 20
    bs: int = 4096
    #: fsync every N writes; 0 = never (paper's "fsync - x" axis)
    fsync: int = 1
    threads: int = 1
    write_ratio: float = 0.5  # only for rw / randrw
    nops: int = 2000  # total operations across all threads
    seed: int = 42
    prefill: bool = True

    @property
    def is_random(self) -> bool:
        return self.op.startswith("rand")

    @property
    def kind(self) -> str:
        return self.op[4:] if self.is_random else self.op


@dataclass
class FioResult:
    job: FioJob
    fs_name: str
    elapsed_ns: float
    total_bytes: int
    ops: int
    write_amplification: float
    lock_wait_ns: float = 0.0
    mst_hit_rate: float = 0.0
    #: uncontended per-operation latencies (write+its fsync merged), ns
    latencies_ns: List[float] = field(default_factory=list)

    def latency_percentile(self, pct: float) -> float:
        """Virtual-time latency percentile (e.g. 50, 99)."""
        return percentile(self.latencies_ns, pct)

    @property
    def mean_latency_ns(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns)

    @property
    def throughput_mb_s(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.total_bytes / (1 << 20)) / (self.elapsed_ns * 1e-9)

    @property
    def iops(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.ops / (self.elapsed_ns * 1e-9)

    def __str__(self) -> str:
        return (
            f"{self.fs_name:14s} {self.job.op:9s} bs={self.job.bs:7d} "
            f"t={self.job.threads:2d} {self.throughput_mb_s:10.1f} MB/s "
            f"amp={self.write_amplification:5.2f}"
        )


def _prefill(fs: FileSystem, handle, size: int) -> None:
    """Fill the file so reads hit real data; costs are then discarded.

    DAX-capable file systems are seeded straight through the device (a
    plain pre-existing file); others go through the API.
    """
    payload = bytes(range(256)) * (PREFILL_CHUNK // 256)
    try:
        device, base, _cap = handle.mmap_view()
        pos = 0
        while pos < size:
            take = min(PREFILL_CHUNK, size - pos)
            # analysis: allow(raw-store-outside-protocol) -- prefill of pre-existing file content, not measured traffic
            device.buffer.store(base + pos, payload[:take])
            pos += take
        device.buffer.drain()
        fs.volume.set_size(handle.inode, size)
    except NotImplementedError:
        pos = 0
        while pos < size:
            take = min(PREFILL_CHUNK, size - pos)
            handle.write(pos, payload[:take])
            pos += take
        handle.fsync()
    fs.take_traces()
    fs.take_bg_traces()


def _offsets(job: FioJob, thread: int, per_thread_ops: int) -> List[int]:
    """Per-thread offset streams. Sequential threads stride through
    disjoint starting points (FIO's default offset interleave)."""
    max_blocks = max(1, job.fsize // job.bs)
    if job.is_random:
        rng = random.Random(job.seed * 1000003 + thread)
        return [rng.randrange(max_blocks) * job.bs for _ in range(per_thread_ops)]
    start = (thread * max_blocks) // max(1, job.threads)
    return [((start + i) % max_blocks) * job.bs for i in range(per_thread_ops)]


def run_fio(fs: FileSystem, job: FioJob, filename: str = "fio.dat") -> FioResult:
    """Execute *job* against *fs* and price it on the virtual clock."""
    handle = fs.create(filename, capacity=job.fsize)
    if job.prefill:
        _prefill(fs, handle, job.fsize)
    stats_base = fs.device.stats.snapshot()
    api_base = fs.api.snapshot()

    per_thread = max(1, job.nops // job.threads)
    offsets = [_offsets(job, t, per_thread) for t in range(job.threads)]
    payload = b"\xab" * job.bs
    mix_rng = random.Random(job.seed ^ 0x5EED)

    thread_traces: List[List[OpTrace]] = [[] for _ in range(job.threads)]
    writes_since_sync = [0] * job.threads
    total_bytes = 0
    ops = 0
    latencies: List[float] = []

    def collect(t: int) -> None:
        new = fs.take_traces()
        thread_traces[t].extend(new)
        if new:
            latencies.append(sum(tr.duration_ns(fs.timing.lock_ns) for tr in new))

    for i in range(per_thread):
        for t in range(job.threads):
            fs.current_thread = t
            off = offsets[t][i]
            kind = job.kind
            if kind == "rw":
                kind = "write" if mix_rng.random() < job.write_ratio else "read"
            if kind == "write":
                handle.write(off, payload)
                total_bytes += job.bs
                writes_since_sync[t] += 1
                if job.fsync and writes_since_sync[t] >= job.fsync:
                    handle.fsync()
                    writes_since_sync[t] = 0
            else:
                handle.read(off, job.bs)
                total_bytes += job.bs
            ops += 1
            collect(t)

    # Per-thread trailers (release lazily retained MGL intention locks).
    for t in range(job.threads):
        fs.end_thread(t)
        collect(t)

    bg_traces = fs.take_bg_traces()

    dev_delta = fs.device.stats.delta(stats_base)
    api_delta = fs.api.delta(api_base)
    amp = (
        dev_delta.stored_bytes / api_delta.bytes_written
        if api_delta.bytes_written
        else 0.0
    )

    if job.threads == 1 and not bg_traces:
        elapsed = sum(tr.duration_ns(fs.timing.lock_ns) for tr in thread_traces[0])
        lock_wait = 0.0
    else:
        streams = [traces for traces in thread_traces]
        daemon = 0
        if bg_traces:
            streams.append(bg_traces)
            # A daemon flusher (MGSP async write-back) contends for
            # channels/locks but its tail does not extend the makespan;
            # demand-driven drains (libnvmmio pressure relief) do.
            daemon = 1 if fs.bg_daemon else 0
        engine = ReplayEngine(fs.timing, obs=fs.obs)
        result = engine.run(streams, background=daemon)
        elapsed = result.makespan_ns
        lock_wait = result.total_lock_wait_ns

    mst_rate = 0.0
    if hasattr(handle, "mst_hits"):
        total = handle.mst_hits + handle.mst_misses
        mst_rate = handle.mst_hits / total if total else 0.0

    return FioResult(
        job=job,
        fs_name=fs.name,
        elapsed_ns=elapsed,
        total_bytes=total_bytes,
        ops=ops,
        write_amplification=amp,
        lock_wait_ns=lock_wait,
        mst_hit_rate=mst_rate,
        latencies_ns=latencies[:ops],
    )
