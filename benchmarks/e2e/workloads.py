"""The eight workloads: input generators, per-op drivers, output oracles.

Each workload is closed-loop and single-threaded on the host; simulated
threads and tenants are virtual. All offsets, keys, crash points and
arrivals come from ``--seed``; the program only ever sees generated
inputs. One *pass* is a fixed number of ops (0.4-0.7 s here); the
runner times passes and the first ``sim_passes`` of them form the **sim
window**, over which every virtual-clock metric, exact count and the
``sim_digest`` are taken — a fixed amount of work, so they repeat
bit-exactly for a seed however many passes the host had time for.

Protocol the runner drives::

    w = cls(seed); w.setup()
    for i in 0..: w.prepare(i); ops = w.run(i) [timed]; w.settle(i, sim=i < w.sim_passes)
    w.close_sim_window(); w.verify()
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.registry import device_size_for, make_fs
from repro.core import recover, verify_file
from repro.crashsweep.census import take_census
from repro.crashsweep.sweep import PERSIST_PROBABILITY, POLICIES, point_seed
from repro.crashsweep.workloads import get_workload, make_config
from repro.db import Database
from repro.nvm.crash import CrashPlan, compose_image
from repro.nvm.device import NvmDevice
from repro.obs import attach_telemetry, percentile
from repro.obs.flight import attach_flight
from repro.service.service import MgspService, ServiceConfig, tenant_requests
from repro.sim.engine import ReplayEngine
from repro.workloads.fio import _prefill
from repro.workloads.tpcc import CUSTOMERS_PER_DISTRICT, DISTRICTS, ITEMS, TpccDriver

FSIZE = 16 << 20
_PREFILL = bytes(range(256))  # what repro.workloads.fio._prefill writes
_READ_CHUNK = 1 << 20


def _image_digest(device) -> str:
    return hashlib.sha256(device.buffer.durable).hexdigest()


def _reads_back(handle, shadow: bytearray) -> bool:
    """Whole-file read-back equals the shadow model (compared by sha256)."""
    got = hashlib.sha256()
    for pos in range(0, len(shadow), _READ_CHUNK):
        got.update(handle.read(pos, _READ_CHUNK))
    return got.digest() == hashlib.sha256(shadow).digest()


class SimWindow:
    """Virtual-clock results and exact counts of the first sim_passes passes."""

    def __init__(self) -> None:
        self.passes = 0
        self.ops = 0
        self.elapsed_ns = 0.0
        self.latencies_ns: List[float] = []
        #: summed deltas; "peak."/"min." keys combine by max/min instead
        self.counts: Dict[str, float] = {}
        self.images: List[str] = []  # durable-image digests


def _ratio(num: float, den: float) -> Optional[float]:
    """num / den; None (undefined, printed as null) when nothing was counted."""
    return num / den if den else None


def _merge(total: Dict[str, float], part: Dict[str, float]) -> None:
    """Add *part* into *total*; "peak."/"min." keys combine by max/min."""
    for key, value in part.items():
        if key.startswith("peak."):
            total[key] = max(total.get(key, value), value)
        elif key.startswith("min."):
            total[key] = min(total.get(key, value), value)
        else:
            total[key] = total.get(key, 0) + value


def _device_counts(stats) -> Dict[str, float]:
    return {"dev." + key: value for key, value in vars(stats).items()}


def _handle_counts(handle) -> Dict[str, float]:
    """MGSP per-handle observability counters (cumulative)."""
    out = {"msl." + key: value for key, value in vars(handle.shadow.stats).items()}
    out["file.fast_hits"] = handle.fast_hits
    out["file.fast_misses"] = handle.fast_misses
    out["file.mst_hits"] = handle.mst_hits
    out["file.mst_misses"] = handle.mst_misses
    return out


def _fs_counts(fs) -> Dict[str, float]:
    """Cumulative counters of one mounted file system."""
    out = _device_counts(fs.device.stats)
    out.update(_library_counts(fs))
    return out


def _library_counts(fs) -> Dict[str, float]:
    """The counters above the device: API traffic, log allocator, flusher."""
    out = {"api.bytes_written": fs.api.bytes_written, "api.writes": fs.api.writes}
    logs = getattr(fs, "logs", None)
    if logs is not None:
        out["peak.allocator_bytes"] = logs.peak_bytes
    flusher = getattr(fs, "flusher", None)
    if flusher is not None:
        out["flusher.epochs"] = flusher.epochs
        out["flusher.bytes_drained"] = flusher.bytes_drained
        out["flusher.deferred"] = flusher.deferred
    return out


def _op_latency(traces: Sequence, lock_ns: float) -> float:
    """Uncontended virtual service time of one op (its traces summed, as
    ``FioResult.latencies_ns`` does). Priced inside the timed region, as
    ``run_fio`` does: keeping every op's traces alive until the pass
    ends instead makes the cyclic GC the dominant cost."""
    return sum(trace.duration_ns(lock_ns) for trace in traces)


def _segments(traces: Sequence) -> int:
    return sum(len(trace.segments) for trace in traces)


class Workload:
    """Base: sim-window accounting and the metric definitions."""

    name = ""
    op_name = "op"
    #: passes in the sim window (also the fewest passes a run makes); more
    #: where the virtual-clock metrics need the samples to be steady
    #: across seeds
    sim_passes = 4
    #: the virtual-clock and exact-count end-to-end metrics this workload
    #: defines, each a method below (the rest are its metrics.UNDEFINED cells)
    defines = ("sim_ops_per_s", "sim_p50_us", "sim_p99_us", "write_amp")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sim = SimWindow()
        self.failed = 0
        #: per-op entry point; the traced run replaces it with a span wrapper
        self.op = self.do_op
        self._base: Dict[str, float] = {}
        # what settle() digests for a sim pass, filled by run()/settle()
        self.pass_ops = 0
        self.pass_elapsed_ns = 0.0
        self.pass_latencies: List[float] = []
        self.pass_segments = 0
        #: exact counts of this pass that no cumulative counter carries
        self.pass_counts: Dict[str, float] = {}

    def rng(self, *parts) -> random.Random:
        """A generator for one named input stream of this seed."""
        return random.Random(":".join(str(p) for p in (self.seed,) + parts))

    # -- protocol ---------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def make_inputs(self, index: int) -> None:
        raise NotImplementedError

    def do_op(self, *args):
        raise NotImplementedError

    def run(self, index: int) -> int:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative exact counters; the sim window sums their deltas."""
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        self.make_inputs(index)
        self._base = self.counters()

    def settle(self, index: int, sim: bool) -> None:
        """After the timed region: fold this pass into the sim window."""
        pass_counts, self.pass_counts = self.pass_counts, {}
        if not sim:
            return
        base = self._base
        _merge(self.sim.counts, {
            key: value if key.startswith(("peak.", "min.")) else value - base.get(key, 0)
            for key, value in self.counters().items()
        })
        _merge(self.sim.counts, pass_counts)
        self.sim.passes += 1
        self.sim.ops += self.pass_ops
        self.sim.elapsed_ns += self.pass_elapsed_ns
        self.sim.latencies_ns.extend(self.pass_latencies)

    def close_sim_window(self) -> None:
        """Called once after the last sim pass (digest the durable image)."""

    def verify(self) -> None:
        """Final output oracle; adds violations to ``self.failed``."""

    # -- metrics -----------------------------------------------------------------

    def sim_metrics(self) -> Dict[str, float]:
        return {name: getattr(self, name)() for name in self.defines}

    def sim_ops_per_s(self) -> float:
        return self.sim.ops / (self.sim.elapsed_ns * 1e-9)

    def sim_p50_us(self) -> float:
        return percentile(self.sim.latencies_ns, 50) / 1000.0

    def sim_p99_us(self) -> float:
        return percentile(self.sim.latencies_ns, 99) / 1000.0

    def write_amp(self) -> float:
        c = self.sim.counts
        return c["dev.stored_bytes"] / c["api.bytes_written"]

    def layer_counts(self) -> Dict[str, Optional[float]]:
        """The LAYER_COUNTS this workload defines; None, like a name left
        out, is printed as null (nothing to count on this workload)."""
        sim = self.sim
        c = sim.counts.get
        ops = sim.ops
        commits = c("msl.fine_commits", 0) + c("msl.coarse_commits", 0)
        stream_ns = c("engine.stream_ns", 0)
        return {
            "nvm.device.stores_per_op": _ratio(c("dev.stores", 0), ops),
            "nvm.device.flush_calls_per_op": _ratio(c("dev.flush_calls", 0), ops),
            "nvm.device.flushed_lines_per_op": _ratio(c("dev.flushed_lines", 0), ops),
            "nvm.device.fences_per_op": _ratio(c("dev.fences", 0), ops),
            "nvm.device.loaded_bytes_per_op": _ratio(c("dev.loaded_bytes", 0), ops),
            "nvm.device.redundant_flushes": c("dev.redundant_flushes"),
            "nvm.device.redundant_fences": c("dev.redundant_fences"),
            "core.shadowlog.fine_commit_share": _ratio(c("msl.fine_commits", 0), commits),
            "core.shadowlog.coarse_commit_share": _ratio(c("msl.coarse_commits", 0), commits),
            "core.shadowlog.undo_commit_share": _ratio(
                c("msl.undo_commits", 0), c("msl.undo_commits", 0) + c("msl.redo_commits", 0)),
            "core.shadowlog.rmw_fill_bytes_per_op": _ratio(c("msl.rmw_fill_bytes", 0), ops),
            "core.shadowlog.logs_allocated": c("msl.logs_allocated"),
            "core.file.fast_path_share": _ratio(c("file.fast_hits", 0), c("api.writes", 0)),
            "core.file.mst_hit_rate": _ratio(
                c("file.mst_hits", 0), c("file.mst_hits", 0) + c("file.mst_misses", 0)),
            "core.flusher.epochs": c("flusher.epochs"),
            "core.flusher.bytes_drained_per_user_byte": _ratio(
                c("flusher.bytes_drained", 0), c("api.bytes_written", 0)),
            "core.flusher.deferred": c("flusher.deferred"),
            "nvm.allocator.peak_bytes": c("peak.allocator_bytes"),
            "sim.trace.segments_per_op": _ratio(c("trace.segments", 0), ops),
            # shares of replayed stream time (makespan x streams)
            "sim.engine.lock_wait_share": _ratio(c("engine.lock_wait_ns", 0), stream_ns),
            "sim.engine.io_share": _ratio(c("engine.io_ns", 0), stream_ns),
            "sim.engine.blocked_acquires_per_op": _ratio(c("engine.blocked_acquires", 0), ops),
        }

    def host_phase_ns(self) -> Dict[str, float]:
        """Host ns per op of phases the workload times itself, keyed by the
        ``*_units_per_*`` metric the runner turns them into."""
        return {}

    def sim_digest(self) -> str:
        """sha256 over every simulated statistic of the sim window."""
        document = {
            "metrics": self.sim_metrics(),
            "ops": self.sim.ops,
            "counts": self.sim.counts,
            "images": self.sim.images,
        }
        return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


# -- fio on MGSP -----------------------------------------------------------------


class FioWorkload(Workload):
    """One MGSP file, write+fsync ops, shadow-model oracle."""

    op_name = "write+fsync"
    bs = 4096
    nops = 6000
    #: inputs are drawn from this named stream, so two workloads that
    #: share it (fio_4k_sync / fio_4k_observed) see the identical ops
    stream = ""
    n_payloads = 16

    def setup(self) -> None:
        self.fs = make_fs("MGSP", device_size=device_size_for(FSIZE))
        self.attach_observers()  # before the handle exists, as repro.obs requires
        self.handle = self.fs.create("fio.dat", capacity=FSIZE)
        _prefill(self.fs, self.handle, FSIZE)
        self.shadow = bytearray(_PREFILL * (FSIZE // len(_PREFILL)))
        self.payloads = [bytes([17 + k]) * self.bs for k in range(self.n_payloads)]
        self.inputs: list = []
        self.lock_ns = self.fs.timing.lock_ns

    def attach_observers(self) -> None:
        """Shipped default: the TraceRecorder only."""

    def counters(self) -> Dict[str, float]:
        out = _fs_counts(self.fs)
        out.update(_handle_counts(self.handle))
        return out

    def offsets(self, index: int) -> List[int]:
        raise NotImplementedError

    def make_inputs(self, index: int) -> None:
        first = index * self.nops
        payloads = self.payloads
        self.inputs = [
            (off, payloads[(first + j) % len(payloads)])
            for j, off in enumerate(self.offsets(index))
        ]

    def do_op(self, off: int, payload: bytes) -> float:
        handle = self.handle
        handle.write(off, payload)
        handle.fsync()
        new = self.fs.take_traces()
        self.pass_segments += _segments(new)
        return _op_latency(new, self.lock_ns)

    def run(self, index: int) -> int:
        op = self.op
        self.pass_segments = 0
        self.pass_latencies = [op(off, payload) for off, payload in self.inputs]
        return len(self.inputs)

    def settle(self, index: int, sim: bool) -> None:
        shadow = self.shadow
        for off, payload in self.inputs:
            shadow[off : off + len(payload)] = payload
        self.pass_ops = len(self.inputs)
        self.pass_elapsed_ns = sum(self.pass_latencies)  # single stream
        self.pass_counts["trace.segments"] = self.pass_segments
        super().settle(index, sim)

    def close_sim_window(self) -> None:
        self.sim.images.append(_image_digest(self.fs.device))

    def verify(self) -> None:
        """Whole-file read-back against the shadow model + fsck."""
        self.failed += not _reads_back(self.handle, self.shadow)
        self.failed += not verify_file(self.handle).ok


class Fio4kSync(FioWorkload):
    name = "fio_4k_sync"
    stream = "fio_4k"

    def offsets(self, index: int) -> List[int]:
        rng = self.rng(self.stream, index)
        blocks = FSIZE // self.bs
        return [rng.randrange(blocks) * self.bs for _ in range(self.nops)]


class Fio4kObserved(Fio4kSync):
    """fio_4k_sync with the observers users attach; must not perturb."""

    name = "fio_4k_observed"

    def attach_observers(self) -> None:
        attach_telemetry(self.fs)
        attach_flight(self.fs)

    def verify(self) -> None:
        super().verify()
        # Non-perturbation is a checked output: replay the sim window on
        # an un-observed twin and compare every simulated statistic.
        twin = Fio4kSync(self.seed)
        twin.setup()
        for index in range(self.sim.passes):
            twin.prepare(index)
            twin.run(index)
            twin.settle(index, sim=True)
        twin.close_sim_window()
        if twin.sim_digest() != self.sim_digest():
            self.failed += 1


class Fio2mSeq(FioWorkload):
    name = "fio_2m_seq"
    stream = "fio_2m"
    bs = 2 << 20
    nops = 200
    n_payloads = 3

    def offsets(self, index: int) -> List[int]:
        blocks = FSIZE // self.bs
        first = index * self.nops
        return [((first + j) % blocks) * self.bs for j in range(self.nops)]


class FioMixedMt(FioWorkload):
    """4 simulated threads, 1 KB random, half reads, replayed per pass."""

    name = "fio_mixed_mt"
    stream = "fio_mixed"
    op_name = "read or write+fsync"
    bs = 1024
    nops = 6000
    threads = 4

    def setup(self) -> None:
        super().setup()
        self.replay = None
        self.streams: List[list] = []

    def make_inputs(self, index: int) -> None:
        rng = self.rng(self.stream, index)
        blocks = FSIZE // self.bs
        payloads = self.payloads
        first = index * self.nops
        # Exactly half reads, shuffled: with a coin per op the median of
        # this two-mode latency mix flips between the modes by seed.
        reads = [j < self.nops // 2 for j in range(self.nops)]
        rng.shuffle(reads)
        self.inputs = [
            (
                j % self.threads,  # round-robin, as run_fio interleaves threads
                is_read,
                rng.randrange(blocks) * self.bs,
                payloads[(first + j) % len(payloads)],
            )
            for j, is_read in enumerate(reads)
        ]

    def do_op(self, thread: int, is_read: bool, off: int, payload: bytes) -> float:
        fs = self.fs
        fs.current_thread = thread
        if is_read:
            if self.handle.read(off, self.bs) != self.shadow[off : off + self.bs]:
                self.failed += 1
        else:
            self.handle.write(off, payload)
            self.handle.fsync()
            self.shadow[off : off + self.bs] = payload
        new = fs.take_traces()
        self.streams[thread].extend(new)
        self.pass_segments += _segments(new)
        return _op_latency(new, self.lock_ns)

    def run(self, index: int) -> int:
        op = self.op
        fs = self.fs
        self.pass_segments = 0
        streams = self.streams = [[] for _ in range(self.threads)]
        self.pass_latencies = [
            op(thread, is_read, off, payload)
            for thread, is_read, off, payload in self.inputs
        ]
        for thread in range(self.threads):  # release lazily retained MGL locks
            fs.current_thread = thread
            fs.end_thread(thread)
            streams[thread].extend(fs.take_traces())
        self.replay = ReplayEngine(fs.timing, obs=fs.obs).run(streams)
        self.streams = []
        return len(self.inputs)

    def settle(self, index: int, sim: bool) -> None:
        result = self.replay
        self.pass_ops = len(self.inputs)
        self.pass_elapsed_ns = result.makespan_ns
        self.pass_counts = {
            "trace.segments": self.pass_segments,
            "engine.lock_wait_ns": result.total_lock_wait_ns,
            "engine.io_ns": sum(t.io_ns for t in result.threads),
            "engine.stream_ns": result.makespan_ns * len(result.threads),
            "engine.blocked_acquires": sum(t.blocked_acquires for t in result.threads),
        }
        Workload.settle(self, index, sim)  # the shadow was kept inline


# -- fio across the four file systems ------------------------------------------------

#: the paper's Fig 8 fine-grained sequential-write speed-up bands of
#: MGSP over each baseline (EXPERIMENTS.md)
PAPER_BANDS = {
    "Ext4-DAX": (3.31, 4.21),
    "Libnvmmio": (3.43, 4.53),
    "NOVA": (1.69, 2.06),
}
_FS_KEYS = {"Ext4-DAX": "ext4dax", "Libnvmmio": "libnvmmio", "NOVA": "nova", "MGSP": "mgsp"}


class FioBaselines(Workload):
    """1 KB sequential write + fsync on all four file systems."""

    name = "fio_baselines"
    op_name = "write+fsync on any FS"
    bs = 1024
    nops = 2000  # per file system per pass
    defines = ("sim_ops_per_s", "paper_band_error_p1")

    def setup(self) -> None:
        self.mounts = []  # (key, fs, handle, shadow)
        for fs_name, key in _FS_KEYS.items():
            fs = make_fs(fs_name, device_size=device_size_for(FSIZE))
            handle = fs.create("fio.dat", capacity=FSIZE)
            _prefill(fs, handle, FSIZE)
            shadow = bytearray(_PREFILL * (FSIZE // len(_PREFILL)))
            self.mounts.append((key, fs, handle, shadow))
        self.payloads = [bytes([17 + k]) * self.bs for k in range(16)]
        self.inputs: list = []
        self.results: list = []

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, fs, _handle, _shadow in self.mounts:
            stats = fs.device.stats
            out[f"fs.{key}.stored"] = stats.stored_bytes
            out[f"fs.{key}.user"] = fs.api.bytes_written
            _merge(out, _device_counts(stats))
            out["api.bytes_written"] = out.get("api.bytes_written", 0) + fs.api.bytes_written
        return out

    def make_inputs(self, index: int) -> None:
        blocks = FSIZE // self.bs
        first = index * self.nops
        payloads = self.payloads
        self.inputs = [
            (((first + j) % blocks) * self.bs, payloads[(first + j) % len(payloads)])
            for j in range(self.nops)
        ]

    def do_op(self, fs, handle, stream: list, off: int, payload: bytes) -> float:
        handle.write(off, payload)
        handle.fsync()
        new = fs.take_traces()
        stream.extend(new)
        return _op_latency(new, fs.timing.lock_ns)

    def run(self, index: int) -> int:
        op = self.op
        self.results = []
        for key, fs, handle, _shadow in self.mounts:
            stream: list = []
            elapsed = sum([op(fs, handle, stream, off, payload) for off, payload in self.inputs])
            # Priced as run_fio prices it: a single stream is the sum of
            # its traces unless the FS produced background traffic.
            bg = fs.take_bg_traces() if hasattr(fs, "take_bg_traces") else []
            if bg:
                daemon = 1 if getattr(fs, "bg_daemon", False) else 0
                elapsed = ReplayEngine(fs.timing, obs=fs.obs).run(
                    [stream, bg], background=daemon).makespan_ns
            self.results.append((key, elapsed))
        return len(self.mounts) * len(self.inputs)

    def settle(self, index: int, sim: bool) -> None:
        for _key, _fs, _handle, shadow in self.mounts:
            for off, payload in self.inputs:
                shadow[off : off + len(payload)] = payload
        self.pass_ops = len(self.mounts) * len(self.inputs)
        self.pass_elapsed_ns = 0.0
        for key, elapsed in self.results:
            self.pass_counts[f"fs.{key}.elapsed_ns"] = elapsed
            self.pass_elapsed_ns += elapsed
        super().settle(index, sim)
        self.results = []

    def close_sim_window(self) -> None:
        for _key, fs, _handle, _shadow in self.mounts:
            self.sim.images.append(_image_digest(fs.device))

    def speed_mb_s(self, key: str) -> float:
        c = self.sim.counts
        nbytes = self.sim.passes * self.nops * self.bs
        return (nbytes / (1 << 20)) / (c[f"fs.{key}.elapsed_ns"] * 1e-9)

    def band_error(self) -> float:
        """Largest relative distance of an MGSP/X speed-up outside its
        paper band (0 = every ratio inside)."""
        worst = 0.0
        mgsp = self.speed_mb_s("mgsp")
        for fs_name, (low, high) in PAPER_BANDS.items():
            ratio = mgsp / self.speed_mb_s(_FS_KEYS[fs_name])
            if ratio < low:
                worst = max(worst, (low - ratio) / low)
            elif ratio > high:
                worst = max(worst, (ratio - high) / high)
        return worst

    def paper_band_error_p1(self) -> float:
        return 1.0 + self.band_error()

    def layer_counts(self) -> Dict[str, Optional[float]]:
        out = super().layer_counts()
        c = self.sim.counts
        for key in _FS_KEYS.values():
            out[f"fs.{key}.sim_mb_s"] = self.speed_mb_s(key)
            out[f"fs.{key}.write_amp"] = c[f"fs.{key}.stored"] / c[f"fs.{key}.user"]
        return out

    def verify(self) -> None:
        for key, _fs, handle, shadow in self.mounts:
            self.failed += not _reads_back(handle, shadow)
            if key == "mgsp":
                self.failed += not verify_file(handle).ok


# -- TPC-C on the embedded database ------------------------------------------------


class TpccDb(Workload):
    name = "tpcc_db"
    op_name = "transaction"
    sim_passes = 10  # 1000 transactions: the five-type mix needs them
    #: the standard mix, exact in every pass: drawing the type per
    #: transaction (TpccDriver.run_transaction) moves every virtual-clock
    #: metric by several percent with the seed
    mix = (("new_order", 45), ("payment", 43), ("order_status", 4),
           ("delivery", 4), ("stock_level", 4))

    def setup(self) -> None:
        self.fs = make_fs("MGSP", device_size=256 << 20)
        self.db = Database(
            self.fs, name="tpcc.db", journal_mode="wal", capacity=40 << 20, cache_pages=128
        )
        self.driver = TpccDriver(self.db, seed=self.seed)
        self.driver.create_schema()
        self.driver.load()
        for _ in range(20):  # so delivery / order-status have data
            self.driver.new_order()
        self.fs.take_traces()
        self.lock_ns = self.fs.timing.lock_ns
        self.inputs: List[str] = []

    def counters(self) -> Dict[str, float]:
        out = _fs_counts(self.fs)
        _merge(out, _handle_counts(self.db.handle))
        _merge(out, _handle_counts(self.db.wal.handle))
        out["pager.hits"] = self.db.pager.cache_hits
        out["pager.misses"] = self.db.pager.cache_misses
        return out

    def make_inputs(self, index: int) -> None:
        """Transaction types in seeded order; keys and amounts are drawn
        by the TpccDriver's RNG (seeded from the same seed)."""
        self.inputs = [name for name, count in self.mix for _ in range(count)]
        self.rng("tpcc", index).shuffle(self.inputs)

    def do_op(self, kind: str) -> float:
        getattr(self.driver, kind)()
        new = self.fs.take_traces()
        self.pass_segments += _segments(new)
        return _op_latency(new, self.lock_ns)

    def run(self, index: int) -> int:
        op = self.op
        self.pass_segments = 0
        self.pass_latencies = [op(kind) for kind in self.inputs]
        return len(self.inputs)

    def settle(self, index: int, sim: bool) -> None:
        self.pass_ops = len(self.inputs)
        self.pass_elapsed_ns = sum(self.pass_latencies)
        self.pass_counts["trace.segments"] = self.pass_segments
        super().settle(index, sim)

    def close_sim_window(self) -> None:
        self.sim.images.append(_image_digest(self.fs.device))

    def layer_counts(self) -> Dict[str, Optional[float]]:
        out = super().layer_counts()
        c = self.sim.counts
        out["db.pager.hit_rate"] = c["pager.hits"] / (c["pager.hits"] + c["pager.misses"])
        return out

    def verify(self) -> None:
        """The TPC-C consistency conditions of tests/test_tpcc_conformance.py."""
        db, driver, w = self.db, self.driver, 1
        bad = 0
        bad += db.table("warehouse").count() != 1
        bad += db.table("district").count() != DISTRICTS
        bad += db.table("customer").count() != DISTRICTS * CUSTOMERS_PER_DISTRICT
        bad += db.table("item").count() != ITEMS
        bad += db.table("stock").count() != ITEMS
        for d in range(1, DISTRICTS + 1):
            next_oid = db.table("district").get((w, d))[3]
            bad += next_oid != driver.next_order_id[d]
            bad += sum(1 for _ in db.table("orders").scan_prefix((w, d))) != next_oid - 1
            pending = sum(1 for _ in db.table("new_order").scan_prefix((w, d)))
            bad += pending != (driver.next_order_id[d] - 1) - (driver.next_delivery[d] - 1)
            for o in range(1, driver.next_order_id[d]):
                order = db.table("orders").get((w, d, o))
                lines = list(db.table("order_line").scan_prefix((w, d, o)))
                if order is None or len(lines) != order[1]:
                    bad += 1
                elif o < driver.next_delivery[d] and order[2] != 1:
                    bad += 1  # delivered orders carry a carrier
        ytd = db.table("warehouse").get((w,))[2]
        paid = sum(row[0] for _, row in db.table("history").scan_all())
        bad += abs(ytd - (300000.0 + paid)) > 1e-6 * max(1.0, abs(ytd))
        ordered = sum(row[2] for _, row in db.table("stock").scan_all())
        bad += ordered != db.table("order_line").count()
        self.failed += bad


# -- the multi-tenant service ---------------------------------------------------------


class ServiceMt(Workload):
    """256 tenants x 8 requests; one pass is a whole service lifetime."""

    name = "service_mt"
    op_name = "offered request"
    tenants = 256
    requests = 8
    bs = 1024
    file_capacity = 16 << 10
    defines = ("sim_ops_per_s", "write_amp")

    def setup(self) -> None:
        self.names = [f"t{idx:04d}" for idx in range(self.tenants)]
        self.offered: list = []
        self.service = None
        self.report = None

    def counters(self) -> Dict[str, float]:
        return {}  # every pass mounts fresh shards: all counts are per pass

    def make_inputs(self, index: int) -> None:
        seed = self.seed * 1000 + index  # a fresh arrival pattern per pass
        offered = []
        for idx, name in enumerate(self.names):
            for request in tenant_requests(
                idx, self.requests, self.bs, self.file_capacity, seed, read_ratio=0.3
            ):
                offered.append((request.arrival_ns, idx, name, request))
        offered.sort(key=lambda item: (item[0], item[1]))  # global arrival order
        self.offered = offered

    def do_op(self, service, name: str, request) -> bool:
        return service.submit(name, request)

    def run(self, index: int) -> int:
        op = self.op
        service = MgspService(ServiceConfig(shards=2, file_capacity=self.file_capacity))
        for name in self.names:
            service.register(name)
        for _arrival, _idx, name, request in self.offered:
            op(service, name, request)
        self.report = service.run()
        self.service = service
        return len(self.offered)

    def settle(self, index: int, sim: bool) -> None:
        report, service = self.report, self.service
        admitted_bytes = sum(req.nbytes for _a, _i, _n, req in self.offered)
        # Offered = admitted + rejected; a reject is a failed request
        # (this workload's quota admits everything it offers).
        self.failed += report.rejected
        self.failed += report.admitted + report.rejected != len(self.offered)
        if not report.rejected:
            self.failed += report.total_bytes != admitted_bytes
        if sim:
            self.failed += self.check_contents(service)
            totals = self.pass_counts
            for fs in service.shards:
                _merge(totals, _fs_counts(fs))
                self.sim.images.append(_image_digest(fs.device))
            for session in service.sessions.values():
                _merge(totals, _handle_counts(session.handle))
            streams = len(service.sessions) + len(service.shards)  # tenants + flusher daemons
            lock_wait_ns = sum(s.lock_wait_ns for s in report.per_shard)
            _merge(totals, {
                "engine.lock_wait_ns": lock_wait_ns,
                "engine.io_ns": sum(s.io_ns for s in report.per_shard),
                "engine.stream_ns": report.makespan_ns * streams,
                "min.shard_util": min(s.utilization for s in report.per_shard),
                "peak.shard_util": max(s.utilization for s in report.per_shard),
            })
            self.pass_ops = len(self.offered)
            self.pass_elapsed_ns = report.makespan_ns
            # today's pre-replay service time per request (contention-blind):
            # kept for service.service.req_p99_ns only
            self.pass_latencies = [
                ns for name in self.names for ns in service.sessions[name].latencies_ns
            ]
        super().settle(index, sim)
        self.service = self.report = None

    def check_contents(self, service) -> int:
        """Each tenant file must hold its admitted writes in arrival order."""
        expected = {name: bytearray(self.file_capacity) for name in self.names}
        size = dict.fromkeys(self.names, 0)
        for _arrival, _idx, name, request in self.offered:
            if request.kind == "write":
                end = request.offset + request.nbytes
                expected[name][request.offset : end] = b"\xab" * request.nbytes
                size[name] = max(size[name], end)
        bad = 0
        for name in self.names:
            got = service.sessions[name].handle.read(0, self.file_capacity)
            bad += got != expected[name][: size[name]]
        return bad

    def layer_counts(self) -> Dict[str, Optional[float]]:
        out = super().layer_counts()
        c = self.sim.counts
        out["service.service.shard_util_min"] = c["min.shard_util"]
        out["service.service.shard_util_max"] = c["peak.shard_util"]
        out["service.service.lock_wait_ns"] = c["engine.lock_wait_ns"]
        out["service.service.req_p99_ns"] = percentile(self.sim.latencies_ns, 99)
        return out


# -- crash, recover, check ---------------------------------------------------------------


class CrashRecover(Workload):
    """Sampled crash points of txn-mixed/async, three images each.

    The op stream is the registered sweep workload's (what CI sweeps);
    the seed chooses where it crashes. Recovery time follows the log
    backlog, a saw-tooth over the run under async write-back, so the
    points are stratified over the whole sim window: its passes together
    put one point in each of ``points_per_pass * sim_passes`` equal
    strata of the event census, and every pass spans the whole run.
    """

    name = "crash_recover"
    op_name = "crash image"
    config = "async"
    points_per_pass = 6
    sim_passes = 6
    defines = ("sim_p50_us", "sim_p99_us")

    def setup(self) -> None:
        self.workload = get_workload("txn-mixed")
        self.census = take_census(self.workload, self.config)
        if not self.census.parity_ok:
            raise RuntimeError("crash-point census parity failed")
        self.points: List[int] = []
        self.outcomes: list = []
        self.recovered: list = []
        self.phase_ns = {"run": 0, "compose": 0, "check": 0}
        self.images_done = 0

    def counters(self) -> Dict[str, float]:
        return {}  # every crash point mounts fresh devices: all counts are per pass

    def make_inputs(self, index: int) -> None:
        rng = self.rng("crash", index)
        events = self.census.events
        strata = self.points_per_pass * self.sim_passes
        self.points = []
        for k in range(self.points_per_pass):
            stratum = k * self.sim_passes + index % self.sim_passes
            low = stratum * events // strata
            high = max(low + 1, (stratum + 1) * events // strata)
            self.points.append(rng.randrange(low, high))

    def image_of(self, outcome, policy, crash_after: int) -> bytes:
        return compose_image(
            outcome.fs.device,
            policy,
            seed=point_seed(self.seed, crash_after),
            persist_probability=PERSIST_PROBABILITY,
        )

    def do_op(self, outcome, policy, crash_after: int):
        phase = self.phase_ns
        t0 = time.perf_counter_ns()
        image = self.image_of(outcome, policy, crash_after)
        t1 = time.perf_counter_ns()
        fs, stats = recover(NvmDevice.from_image(image), config=make_config(self.config))
        violations = self.workload.check(image, self.config, outcome.oracles, idempotence=True)
        t2 = time.perf_counter_ns()
        phase["compose"] += t1 - t0
        phase["check"] += t2 - t1
        self.failed += bool(violations)
        return (stats, fs.device.stats)

    def run(self, index: int) -> int:
        op = self.op
        workload = self.workload
        self.outcomes = []
        self.recovered = []
        images = 0
        for crash_after in self.points:
            t0 = time.perf_counter_ns()
            outcome = workload.run(self.config, CrashPlan(crash_after))
            self.phase_ns["run"] += time.perf_counter_ns() - t0
            images += len(POLICIES)
            if not outcome.crashed:  # an enumerated point that never fired
                self.failed += len(POLICIES)
                continue
            self.outcomes.append((outcome, crash_after))
            for policy in POLICIES:
                self.recovered.append(op(outcome, policy, crash_after))
        self.images_done += images
        return images

    def settle(self, index: int, sim: bool) -> None:
        if sim:
            totals = self.pass_counts
            for outcome, crash_after in self.outcomes:
                fs = outcome.fs
                _merge(totals, _device_counts(fs.device.stats.delta(outcome.stats_base)))
                _merge(totals, _library_counts(fs))
                for policy in POLICIES:  # recomposed here, outside the timed region
                    image = self.image_of(outcome, policy, crash_after)
                    self.sim.images.append(hashlib.sha256(image).hexdigest())
            for stats, device_stats in self.recovered:
                _merge(totals, _device_counts(device_stats))
                _merge(totals, {
                    "rec.entries_replayed": stats.entries_replayed,
                    "rec.log_bytes": stats.log_bytes_written_back,
                })
            # sim_p50/p99 here are virtual recovery time per image
            self.pass_latencies = [stats.elapsed_ns for stats, _ in self.recovered]
            self.pass_ops = len(self.recovered)
        super().settle(index, sim)
        self.outcomes = []
        self.recovered = []

    def layer_counts(self) -> Dict[str, Optional[float]]:
        out = super().layer_counts()
        c = self.sim.counts
        ops = self.sim.ops
        out["core.recovery.entries_replayed_per_image"] = c["rec.entries_replayed"] / ops
        out["core.recovery.log_bytes_written_back_per_image"] = c["rec.log_bytes"] / ops
        out["crashsweep.events_per_run"] = self.census.events
        return out

    def host_phase_ns(self) -> Dict[str, float]:
        return {
            f"crashsweep.{phase}_units_per_image": ns / self.images_done
            for phase, ns in self.phase_ns.items()
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        Fio4kSync, Fio4kObserved, Fio2mSeq, FioMixedMt,
        TpccDb, ServiceMt, CrashRecover, FioBaselines,
    )
}
