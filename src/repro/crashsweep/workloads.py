"""Workload registry for the crash-state sweep.

A sweep workload is a *deterministic* driver: it builds a small system
under test, arms a :class:`~repro.nvm.crash.CrashPlan`, and issues a
fixed (seeded) operation stream while maintaining an oracle of what the
system must expose after any crash. Determinism is the whole point — the
sweep re-runs the same workload once per sampled crash index and every
run must emit the identical persistence-event sequence.

The registry started MGSP-only; it now carries three kinds of subject
behind one :class:`SweepWorkload` surface:

- **MGSP** workloads (fio/txn/ycsb) run under each named config in
  :data:`CONFIGS` — ``sync`` is the paper's baseline, ``async`` arms the
  background write-back scheduler — and check the full §III-D contract
  via :func:`repro.crashsweep.invariants.check_image`.
- **Baseline file systems** (NOVA, Libnvmmio) run their own recovery and
  their own (per-op-atomic resp. fsync-granular) oracles; the MGSP
  config axis does not apply, so they declare ``supported_configs``.
- **Raw-device structures** (the durable MPSC queue) run on a bare
  :class:`RawSystem` shim with an abstract-state oracle.

Subclass hooks: :meth:`make_system` builds the subject, :meth:`check`
judges a composed crash image, :meth:`region_map` names device regions
for the invariant miner, and :meth:`variant` derives a reseeded twin for
cross-run invariant pruning.

The MGSP oracle model: MGSP promises per-operation failure atomicity, so
at any instant a file's legal post-crash content is "all completed
atomic ops applied" (``synced``) plus the single in-flight atomic group
applied all-or-nothing (``pending``). Transactions widen the group to
the whole write set while ``commit`` is in flight; staged-but-
uncommitted transaction writes are *not* pending — they must roll back.
"""

from __future__ import annotations

import copy
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import MgspConfig, MgspFilesystem
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice
from repro.sim.trace import TraceRecorder

#: Small device: every sampled crash point copies the image several
#: times (compose, mount, idempotence re-mount), so sweep throughput is
#: dominated by image size.
DEVICE_SIZE = 4 << 20
FILE_CAP = 96 << 10

CONFIGS: Dict[str, Callable[[], MgspConfig]] = {
    "sync": lambda: MgspConfig(degree=16),
    "async": lambda: MgspConfig(
        degree=16, async_writeback=True, writeback_epoch_bytes=16 << 10
    ),
}


def make_config(name: str) -> MgspConfig:
    factory = CONFIGS.get(name)
    if factory is None:
        raise ValueError(f"unknown sweep config {name!r}; choices: {sorted(CONFIGS)}")
    return factory()


@dataclass
class FileOracle:
    """Reference content of one file under per-op failure atomicity."""

    capacity: int
    synced: bytearray
    #: the in-flight atomic group; persists all-or-nothing
    pending: Optional[List[Tuple[int, bytes]]] = None

    def apply_pending(self) -> None:
        for off, payload in self.pending or ():
            self.synced[off : off + len(payload)] = payload
        self.pending = None

    def legal_states(self) -> Set[bytes]:
        states = {bytes(self.synced)}
        if self.pending:
            new = bytearray(self.synced)
            for off, payload in self.pending:
                new[off : off + len(payload)] = payload
            states.add(bytes(new))
        return states


@dataclass
class RunOutcome:
    """One workload execution, crashed or complete."""

    fs: object
    config_name: str
    oracles: Dict[str, object]
    crashed: bool
    plan: Optional[CrashPlan]
    #: DeviceStats snapshot taken when the plan was armed — the census
    #: derives the crash-point count from the delta since this point.
    stats_base: object
    #: whatever ``instrument(system)`` returned (the attached observers)
    attached: object = None


class RawSystem:
    """Bare-device stand-in for a mounted file system: gives raw-NVM
    subjects (the persistent queue, planted-bug protocols) the same
    ``device`` / ``recorder`` / ``op()`` surface the sweep and the
    device observers expect from a :class:`~repro.fsapi.interface.FileSystem`.
    """

    def __init__(self, device_size: int = DEVICE_SIZE) -> None:
        from repro.nvm.timing import OptaneTiming

        self.device = NvmDevice(device_size)
        self.recorder = TraceRecorder(OptaneTiming())

    @contextmanager
    def op(self, kind: str):
        self.recorder.begin_op(kind)
        try:
            yield
        finally:
            self.recorder.end_op()


class SweepWorkload:
    """Base driver: subclasses define :meth:`setup` and :meth:`body`."""

    name: str = "?"
    description: str = ""
    #: configs this workload runs under in a full sweep. Any config name
    #: is *accepted* by :meth:`run` (non-MGSP subjects ignore it), but
    #: :func:`repro.crashsweep.sweep.sweep` only schedules these.
    supported_configs: Tuple[str, ...] = ("sync", "async")
    #: seed of the op stream; None when the stream has no random axis
    seed: Optional[int] = None

    def setup(self, system) -> dict:
        """Create files/handles; runs *before* the crash plan is armed."""
        raise NotImplementedError

    def body(self, system, state: dict) -> None:
        """The swept operation stream; every persistence event in here
        is a crash point."""
        raise NotImplementedError

    def oracles(self, state: dict) -> Dict[str, object]:
        return state.get("oracles", {})

    def make_system(self, config_name: str):
        """Build the system under test for one named config."""
        return MgspFilesystem(device_size=DEVICE_SIZE, config=make_config(config_name))

    def check(
        self,
        image: bytes,
        config_name: str,
        oracles: Dict[str, object],
        idempotence: bool = True,
    ) -> List[str]:
        """Judge one composed post-crash image; [] means it passed."""
        from repro.crashsweep.invariants import check_image

        return check_image(image, config_name, oracles, idempotence=idempotence)

    def region_map(self, system):
        """Offset→region classifier for the invariant miner."""
        from repro.analysis.analyzer import RegionMap

        return RegionMap.from_layout(system.volume.layout)

    def variant(self, seed: int) -> "SweepWorkload":
        """A reseeded twin issuing a *different* deterministic op stream
        (same shape); used by inference to prune run-specific patterns.
        A workload with no ``seed`` has no seed axis and is its own twin."""
        if self.seed is None:
            return self
        twin = copy.copy(self)
        twin.seed = self.seed ^ (seed * 0x9E3779B9)
        return twin

    def run(
        self,
        config_name: str,
        plan: Optional[CrashPlan] = None,
        instrument: Optional[Callable[[object], object]] = None,
    ) -> RunOutcome:
        system = self.make_system(config_name)
        # Observer attachment point (e.g. the repro.analysis tap): runs
        # before setup so the observer sees the whole stream.
        attached = instrument(system) if instrument is not None else None
        state = self.setup(system)
        system.device.drain()
        stats_base = system.device.stats.snapshot()
        if plan is not None:
            system.device.attach(plan)
        crashed = False
        try:
            self.body(system, state)
        except CrashRequested:
            crashed = True
        return RunOutcome(
            fs=system,
            config_name=config_name,
            oracles=self.oracles(state),
            crashed=crashed,
            plan=plan,
            stats_base=stats_base,
            attached=attached,
        )


class FioSweepWorkload(SweepWorkload):
    """Single-file write stream mirroring the FIO job surface
    (``op``/``bs``-mix/``fsync`` cadence) at sweep scale."""

    def __init__(
        self,
        name: str,
        op: str = "randwrite",
        nops: int = 300,
        fsync_every: int = 4,
        seed: int = 0xF10,
    ) -> None:
        self.name = name
        self.op = op
        self.nops = nops
        self.fsync_every = fsync_every
        self.seed = seed
        self.description = f"{op}, {nops} ops, fsync every {fsync_every}"

    def setup(self, fs) -> dict:
        handle = fs.create("f", capacity=FILE_CAP)
        oracle = FileOracle(FILE_CAP, bytearray(FILE_CAP))
        return {"handle": handle, "oracles": {"f": oracle}}

    def body(self, fs, state: dict) -> None:
        handle = state["handle"]
        oracle = state["oracles"]["f"]
        rng = random.Random(self.seed)
        sizes = (64, 512, 2048, 4096)
        span = FILE_CAP - max(sizes)
        pos = 0
        for i in range(self.nops):
            size = sizes[rng.randrange(len(sizes))]
            if self.op == "randwrite":
                off = rng.randrange(0, span)
            else:
                off = pos
                pos = (pos + size) % span
            payload = bytes([1 + i % 250]) * size
            oracle.pending = [(off, payload)]
            handle.write(off, payload)
            oracle.apply_pending()
            if self.fsync_every and (i + 1) % self.fsync_every == 0:
                handle.fsync()


class TxnSweepWorkload(SweepWorkload):
    """Plain writes interleaved with multi-write transactions: staged
    writes must roll back, committed groups must appear atomically."""

    name = "txn-mixed"
    description = "plain writes + 2-3-write transactions (commit and rollback)"

    def __init__(self, rounds: int = 45, seed: int = 0x7A7) -> None:
        self.rounds = rounds
        self.seed = seed

    def setup(self, fs) -> dict:
        handle = fs.create("t", capacity=FILE_CAP)
        oracle = FileOracle(FILE_CAP, bytearray(FILE_CAP))
        return {"handle": handle, "oracles": {"t": oracle}}

    def body(self, fs, state: dict) -> None:
        handle = state["handle"]
        oracle = state["oracles"]["t"]
        rng = random.Random(self.seed)
        span = FILE_CAP - 4096
        for i in range(self.rounds):
            # One plain synchronized write.
            off = rng.randrange(0, span)
            payload = bytes([1 + i % 250]) * rng.choice([256, 1024])
            oracle.pending = [(off, payload)]
            handle.write(off, payload)
            oracle.apply_pending()

            # One transaction; every 5th one rolls back instead.
            group = [
                (rng.randrange(0, span), bytes([10 + i % 200]) * rng.choice([128, 768]))
                for _ in range(2 + i % 2)
            ]
            txn = fs.begin_transaction(handle)
            for t_off, t_payload in group:
                # Staged, not pending: a crash here must revert the group.
                txn.write(t_off, t_payload)
            if i % 5 == 4:
                txn.rollback()
            else:
                oracle.pending = group
                txn.commit()
                oracle.apply_pending()


class YcsbSweepWorkload(SweepWorkload):
    """YCSB-A-style update-heavy mix through the embedded database.

    The DB's own WAL defines its content semantics, so this workload
    carries no byte-level oracle — the sweep still proves the MGSP layer
    recovers (structural invariants + recovery idempotence) under
    key-value traffic with its many small co-located writes.
    """

    name = "ycsb-a"
    description = "update-heavy KV mix via the embedded DB (structural checks)"

    def __init__(
        self, records: int = 60, operations: int = 60, seed: int = 0x4C5B
    ) -> None:
        self.records = records
        self.operations = operations
        self.seed = seed

    def setup(self, fs) -> dict:
        from repro.db import Database

        db = Database(
            fs,
            name="ycsb.db",
            journal_mode="wal",
            capacity=640 << 10,
            wal_capacity=512 << 10,
            checkpoint_limit=96 << 10,
        )
        table = db.create_table("usertable")
        payload = "v" * 24
        for key in range(self.records):
            table.insert((key,), (payload,))
        return {"db": db, "table": table, "oracles": {}}

    def body(self, fs, state: dict) -> None:
        table = state["table"]
        rng = random.Random(self.seed)
        next_insert = self.records
        for step in range(self.operations):
            pick = rng.random()
            key = rng.randrange(self.records)
            if pick < 0.45:
                table.get((key,))
            elif pick < 0.9:
                table.update((key,), ("u" * 24 + str(step),))
            else:
                table.insert((next_insert,), ("n" * 24,))
                next_insert += 1


# -- baseline file-system subjects ------------------------------------------


class NovaSweepWorkload(SweepWorkload):
    """NOVA under the sweep: per-operation CoW atomicity, checked through
    :meth:`repro.fs.nova.Nova.recover` (journal roll-forward).

    The MGSP config axis does not apply — NOVA is its own protocol — so
    only one config is scheduled; the name is accepted and ignored.
    """

    supported_configs = ("sync",)

    def __init__(self, name: str, pattern: str = "randwrite", nops: int = 40,
                 seed: int = 0x404A) -> None:
        self.name = name
        self.pattern = pattern
        self.nops = nops
        self.seed = seed
        self.description = f"NOVA CoW {pattern}, {nops} ops (per-op atomic oracle)"

    def make_system(self, config_name: str):
        from repro.fs.nova import Nova

        return Nova(device_size=DEVICE_SIZE)

    def setup(self, fs) -> dict:
        handle = fs.create("n", capacity=FILE_CAP)
        oracle = FileOracle(FILE_CAP, bytearray(FILE_CAP))
        return {"handle": handle, "oracles": {"n": oracle}}

    def body(self, fs, state: dict) -> None:
        handle = state["handle"]
        oracle = state["oracles"]["n"]
        rng = random.Random(self.seed)
        if self.pattern == "randwrite":
            sizes = (512, 4096, 8192)
        else:  # multi-page bursts: stress the chunked journal commit
            sizes = (8192, 12288, 20480)
        span = FILE_CAP - max(sizes)
        for i in range(self.nops):
            size = sizes[rng.randrange(len(sizes))]
            off = rng.randrange(0, span)
            if self.pattern != "randwrite":
                off &= ~4095  # page-aligned whole-page overwrites
            payload = bytes([1 + i % 250]) * size
            oracle.pending = [(off, payload)]
            handle.write(off, payload)
            oracle.apply_pending()
            if i % 8 == 7:
                handle.fsync()

    def check(self, image, config_name, oracles, idempotence=True) -> List[str]:
        from repro.crashsweep.invariants import idempotence_violations
        from repro.fs.nova import Nova

        violations: List[str] = []
        try:
            fs = Nova.recover(NvmDevice.from_image(image))
        except Exception as exc:
            return [f"NOVA recovery raised {type(exc).__name__}: {exc}"]
        for name, oracle in oracles.items():
            try:
                handle = fs.open(name)
                got = handle.read(0, oracle.capacity).ljust(oracle.capacity, b"\0")
            except Exception as exc:
                violations.append(f"{name}: unreadable after recovery: {exc!r}")
                continue
            if got not in oracle.legal_states():
                violations.append(
                    f"{name}: recovered content is neither the synced nor the "
                    f"synced+pending state (size={handle.size})"
                )
        if idempotence:

            def recover_again(device: NvmDevice) -> str:
                Nova.recover(device)
                return ""

            violations += idempotence_violations(
                fs.device, recover_again, "NOVA recovery", "second NOVA recovery raised {exc!r}"
            )
        return violations


@dataclass
class LibnvmmioOracle:
    """Byte-wise fsync-granularity oracle: after a crash every file byte
    must read as either its last-synced value or its latest-written
    value (a checkpoint interrupted mid-flight writes back any subset of
    logged bytes; it never invents other values)."""

    capacity: int
    synced: bytearray
    current: bytearray


class LibnvmmioSweepWorkload(SweepWorkload):
    """Libnvmmio under the sweep. Write-only streams keep every epoch in
    redo mode — the undo epoch writes in place and deliberately breaks
    crash atomicity between syncs (pinned by the baseline-semantics
    tests), which no byte-wise oracle can bound."""

    supported_configs = ("sync",)

    def __init__(self, name: str, pattern: str = "randwrite", nops: int = 48,
                 fsync_every: int = 6, seed: int = 0x11B0) -> None:
        self.name = name
        self.pattern = pattern
        self.nops = nops
        self.fsync_every = fsync_every
        self.seed = seed
        self.description = (
            f"Libnvmmio redo-log {pattern}, {nops} ops, fsync every {fsync_every}"
        )

    def make_system(self, config_name: str):
        from repro.fs.libnvmmio import Libnvmmio

        return Libnvmmio(device_size=DEVICE_SIZE)

    def setup(self, fs) -> dict:
        handle = fs.create("l", capacity=FILE_CAP)
        oracle = LibnvmmioOracle(FILE_CAP, bytearray(FILE_CAP), bytearray(FILE_CAP))
        return {"handle": handle, "oracles": {"l": oracle}}

    def body(self, fs, state: dict) -> None:
        handle = state["handle"]
        oracle = state["oracles"]["l"]
        rng = random.Random(self.seed)
        sizes = (64, 1024, 4096) if self.pattern == "randwrite" else (2048, 4096)
        span = FILE_CAP - max(sizes)
        pos = 0
        for i in range(self.nops):
            size = sizes[rng.randrange(len(sizes))]
            if self.pattern == "randwrite":
                off = rng.randrange(0, span)
            else:
                off = pos
                pos = (pos + size) % span
            payload = bytes([1 + i % 250]) * size
            handle.write(off, payload)
            oracle.current[off : off + size] = payload
            if (i + 1) % self.fsync_every == 0:
                handle.fsync()
                oracle.synced[:] = oracle.current

    def check(self, image, config_name, oracles, idempotence=True) -> List[str]:
        from repro.fs.libnvmmio import Libnvmmio
        from repro.fsapi.layout import VolumeLayout
        from repro.fsapi.volume import Volume

        violations: List[str] = []
        device = NvmDevice.from_image(image)
        try:
            volume = Volume.mount(
                device,
                VolumeLayout.for_device(device.size, log_fraction=Libnvmmio.log_fraction),
            )
        except Exception as exc:
            return [f"Libnvmmio remount raised {type(exc).__name__}: {exc}"]
        for name, oracle in oracles.items():
            try:
                inode = volume.lookup(name)
            except Exception as exc:
                violations.append(f"{name}: lost after crash: {exc!r}")
                continue
            got = device.buffer.load(inode.base, oracle.capacity)
            for i, b in enumerate(got):
                if b != oracle.synced[i] and b != oracle.current[i]:
                    violations.append(
                        f"{name}: byte {i} reads {b}, neither last-synced "
                        f"({oracle.synced[i]}) nor latest-written ({oracle.current[i]})"
                    )
                    break
        # No recovery pass exists to re-run: idempotence is vacuous here.
        return violations


# -- raw-device subject: the durable MPSC queue -----------------------------

PQUEUE_BASE = 4096
PQUEUE_NSLOTS = 16
PQUEUE_PAYLOAD_CAP = 48


def _pq_payload(counter: int) -> bytes:
    """Deterministic, per-item-unique payload (maps items back to seqs)."""
    width = 8 + (counter % 5) * 8
    return (counter.to_bytes(4, "little") * ((width // 4) + 1))[:width]


@dataclass
class QueueOracle:
    """Abstract queue state with at most one ambiguous in-flight op."""

    payloads: Dict[int, bytes] = field(default_factory=dict)
    committed: Set[int] = field(default_factory=set)
    consumed: Set[int] = field(default_factory=set)
    inflight_commit: Optional[int] = None
    inflight_consume: Optional[int] = None

    def legal_live_payload_lists(self) -> List[List[bytes]]:
        base = self.committed - self.consumed
        candidates = [set(base)]
        if self.inflight_commit is not None:
            candidates.append(base | {self.inflight_commit})
        if self.inflight_consume is not None:
            candidates.append(base - {self.inflight_consume})
        out = []
        for cand in candidates:
            lst = [self.payloads[s] for s in sorted(cand)]
            if lst not in out:
                out.append(lst)
        return out


class PqueueSweepWorkload(SweepWorkload):
    """The durable MPSC queue under the sweep: interleaved two-phase
    enqueues (simulated multi-producer out-of-order commits), one-shot
    enqueues, and dequeues. ``sync`` persists the header hints per op;
    ``async`` leaves them stale — recovery must not trust them either
    way."""

    name = "pqueue-mpsc"
    description = "durable MPSC queue: 2-phase + one-shot enqueues, dequeues"
    supported_configs = ("sync", "async")

    def __init__(self, rounds: int = 8, seed: int = 0x9CE) -> None:
        self.rounds = rounds
        self.seed = seed

    def make_system(self, config_name: str):
        return RawSystem(device_size=256 << 10)

    def setup(self, system) -> dict:
        from repro.db.pqueue import PersistentQueue

        with system.op("format"):
            queue = PersistentQueue.format(
                system.device,
                PQUEUE_BASE,
                nslots=PQUEUE_NSLOTS,
                payload_cap=PQUEUE_PAYLOAD_CAP,
                sync=True,
            )
        return {"queue": queue, "oracles": {"queue": QueueOracle()}}

    def body(self, system, state: dict) -> None:
        queue = state["queue"]
        queue.sync = self.run_config == "sync"
        oracle: QueueOracle = state["oracles"]["queue"]
        rng = random.Random(self.seed)
        # counter 0 would make the first payload all-zero — a no-op store
        # on the zeroed slot that degenerates tear probes; start at 1.
        counter = 1

        def begin(payload):
            with system.op("enqueue_begin"):
                return queue.enqueue_begin(payload)

        def commit(pending):
            oracle.payloads[pending.seq] = pending.payload
            oracle.inflight_commit = pending.seq
            with system.op("enqueue_commit"):
                queue.enqueue_commit(pending)
            oracle.committed.add(pending.seq)
            oracle.inflight_commit = None

        def dequeue():
            live = sorted(oracle.committed - oracle.consumed)
            expect = live[0] if live else None
            oracle.inflight_consume = expect
            with system.op("dequeue"):
                got = queue.dequeue()
            oracle.inflight_consume = None
            if expect is None:
                assert got is None, "dequeue from empty queue returned an item"
            else:
                oracle.consumed.add(expect)
                assert got == oracle.payloads[expect], "dequeue order violated"

        for _ in range(self.rounds):
            pa = begin(_pq_payload(counter))
            counter += 1
            pb = begin(_pq_payload(counter))
            counter += 1
            # Simulated second producer finishing first: out-of-order commit.
            commit(pb)
            commit(pa)
            with system.op("enqueue"):
                oracle.payloads[queue._tail_seq] = _pq_payload(counter)
                oracle.inflight_commit = queue._tail_seq
                queue.enqueue(_pq_payload(counter))
            oracle.committed.add(oracle.inflight_commit)
            oracle.inflight_commit = None
            counter += 1
            ndeq = 2 if rng.random() < 0.8 else 3
            for _ in range(ndeq):
                dequeue()

    def run(self, config_name, plan=None, instrument=None):
        # body() needs the config name to pick the hint-persistence mode.
        self.run_config = config_name
        return super().run(config_name, plan=plan, instrument=instrument)

    def region_map(self, system):
        return PqueueRegionMap()

    def check(self, image, config_name, oracles, idempotence=True) -> List[str]:
        from repro.crashsweep.invariants import idempotence_violations
        from repro.db.pqueue import PersistentQueue

        violations: List[str] = []
        oracle: QueueOracle = oracles["queue"]
        sync = config_name == "sync"
        device = NvmDevice.from_image(image)
        try:
            queue = PersistentQueue.recover(device, PQUEUE_BASE, sync=sync)
        except Exception as exc:
            return [f"queue recovery raised {type(exc).__name__}: {exc}"]
        live = queue.live_items()
        legal = oracle.legal_live_payload_lists()
        if live not in legal:
            violations.append(
                f"recovered live set has {len(live)} item(s) and matches none of "
                f"{len(legal)} legal abstract state(s)"
            )
        drained = []
        while True:
            item = queue.dequeue()
            if item is None:
                break
            drained.append(item)
        if drained != live:
            violations.append("dequeue drain order diverges from the live-item scan")
        if idempotence:

            def recover_again(device: NvmDevice) -> str:
                PersistentQueue.recover(device, PQUEUE_BASE, sync=sync)
                return ""

            # The drain loop above consumed the first device's queue, so
            # the fixpoint starts from the image again; this recovery is
            # the one that returned at the top, it cannot raise here.
            first = NvmDevice.from_image(image)
            recover_again(first)
            violations += idempotence_violations(
                first, recover_again, "queue recovery", "re-recovery raised {kind}: {exc}"
            )
        return violations


class PqueueRegionMap:
    """Region names for the queue's extent (miner classification)."""

    def __init__(
        self,
        base: int = PQUEUE_BASE,
        nslots: int = PQUEUE_NSLOTS,
        payload_cap: int = PQUEUE_PAYLOAD_CAP,
    ) -> None:
        self.base = base
        self.nslots = nslots
        self.stride = 24 + payload_cap
        self.end = base + 64 + nslots * self.stride

    def classify(self, offset: int) -> str:
        if offset < self.base or offset >= self.end:
            return "unmapped"
        if offset < self.base + 64:
            return "qheader"
        within = (offset - self.base - 64) % self.stride
        if within < 8:
            return "qslot_commit"
        if within < 16:
            return "qslot_consumed"
        return "qslot_body"


WORKLOADS: Dict[str, SweepWorkload] = {
    w.name: w
    for w in (
        FioSweepWorkload("fio-randwrite", op="randwrite"),
        FioSweepWorkload("fio-write", op="write", fsync_every=8, seed=0xF11),
        TxnSweepWorkload(),
        YcsbSweepWorkload(),
        NovaSweepWorkload("nova-fio", pattern="randwrite"),
        NovaSweepWorkload("nova-txn", pattern="multipage", nops=24, seed=0x404B),
        LibnvmmioSweepWorkload("libnvmmio-fio", pattern="randwrite"),
        LibnvmmioSweepWorkload("libnvmmio-txn", pattern="write", nops=36,
                               fsync_every=4, seed=0x11B1),
        PqueueSweepWorkload(),
    )
}


def get_workload(name: str) -> SweepWorkload:
    workload = WORKLOADS.get(name)
    if workload is None:
        # Planted-bug fixtures live in repro.infer so the default CI
        # sweep never schedules them, but --at reproducers still resolve.
        try:
            from repro.infer import fixtures
        except ImportError:
            fixtures = None
        if fixtures is not None:
            workload = fixtures.FIXTURE_WORKLOADS.get(name)
    if workload is None:
        raise ValueError(f"unknown workload {name!r}; choices: {sorted(WORKLOADS)}")
    return workload
