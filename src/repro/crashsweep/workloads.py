"""Workload registry for the crash-state sweep.

A sweep workload is a *deterministic* driver: it builds a small system
under test, arms a :class:`~repro.nvm.crash.CrashPlan`, and issues a
fixed (seeded) operation stream while maintaining an oracle of what the
system must expose after any crash. Determinism is the whole point — the
sweep re-runs the same workload once per sampled crash index and every
run must emit the identical persistence-event sequence.

A subject's oracle is its consistency level: one object that issues the
stream's updates (``write`` / ``fsync``) and judges a recovered file
(``illegal``). A state is legal iff it equals the model after an
op-prefix the level permits.

- :class:`FileOracle`, per-op (MGSP, NOVA): every completed atomic
  group applied, the one in flight all-or-nothing. A transaction widens
  the group to its write set while ``commit`` runs; staged-but-
  uncommitted writes are *not* pending — they must roll back.
- :class:`FsyncOracle`, fsync-granular and byte-wise (Libnvmmio).
- :class:`QueueOracle`, the durable MPSC queue's abstract state.

One driver, :class:`FioSweepWorkload`, issues the single-file write
stream of MGSP, NOVA and Libnvmmio; the baselines override only
:meth:`~SweepWorkload.make_system` and :meth:`~SweepWorkload.check`.
MGSP workloads run under each named config in :data:`CONFIGS` (``sync``
is the paper's baseline, ``async`` arms the background write-back
scheduler) and are judged by
:func:`repro.crashsweep.invariants.check_image`. The baselines have no
config axis, so they declare ``supported_configs``; the queue runs on a
bare :class:`RawSystem` shim.

Subclass hooks: :meth:`make_system` builds the subject, :meth:`check`
judges a composed crash image, :meth:`region_map` names device regions
for the invariant miner, and :meth:`variant` derives a reseeded twin for
cross-run invariant pruning.
"""

from __future__ import annotations

import copy
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

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


class FileOracle:
    """One file under per-op failure atomicity: ``synced`` has every
    completed atomic group applied, ``pending`` is the one in flight."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.synced = bytearray(capacity)
        self.pending: Optional[List[Tuple[int, bytes]]] = None

    @contextmanager
    def atomic(self, group: List[Tuple[int, bytes]]):
        """*group* is pending while the body runs; a crash inside leaves
        it pending, a return applies it."""
        self.pending = group
        yield
        for off, payload in group:
            self.synced[off : off + len(payload)] = payload
        self.pending = None

    def write(self, handle, off: int, payload: bytes) -> None:
        with self.atomic([(off, payload)]):
            handle.write(off, payload)

    def fsync(self, handle) -> None:
        handle.fsync()

    def illegal(self, got: bytes) -> Optional[str]:
        if got == self.synced:
            return None
        if self.pending:
            new = bytearray(self.synced)
            for off, payload in self.pending:
                new[off : off + len(payload)] = payload
            if got == new:
                return None
        return "recovered content is neither the synced nor the synced+pending state"


class FsyncOracle:
    """One file under fsync-granular byte-wise atomicity: every byte
    reads as its last-synced or its latest-written value (a checkpoint
    interrupted mid-flight writes back any subset of logged bytes; it
    never invents other values)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.synced = bytearray(capacity)
        self.current = bytearray(capacity)

    def write(self, handle, off: int, payload: bytes) -> None:
        handle.write(off, payload)
        self.current[off : off + len(payload)] = payload

    def fsync(self, handle) -> None:
        handle.fsync()
        self.synced[:] = self.current

    def illegal(self, got: bytes) -> Optional[str]:
        for i, b in enumerate(got):
            if b != self.synced[i] and b != self.current[i]:
                return (
                    f"byte {i} reads {b}, neither last-synced ({self.synced[i]}) "
                    f"nor latest-written ({self.current[i]})"
                )
        return None


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
    #: the CLI subject (``--fs``) and its short name for this entry
    #: (``--workload``); an entry with no alias is named in full only
    subject: str = "mgsp"
    alias: Optional[str] = None
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
    """Single-file write stream mirroring the FIO job surface (block-size
    mix, random or sequential offsets, fsync cadence) at sweep scale,
    judged by the consistency level ``oracle_type``."""

    oracle_type = FileOracle
    fname = "f"

    def __init__(
        self,
        name: str,
        description: str,
        sizes: Tuple[int, ...],
        nops: int,
        fsync_every: int,
        seed: int,
        sequential: bool = False,
        align: int = 1,
        alias: Optional[str] = None,
    ) -> None:
        self.name = name
        self.description = description
        self.alias = alias
        self.sizes = sizes
        self.nops = nops
        self.fsync_every = fsync_every
        self.seed = seed
        self.sequential = sequential
        self.align = align

    def setup(self, fs) -> dict:
        handle = fs.create(self.fname, capacity=FILE_CAP)
        return {"handle": handle, "oracles": {self.fname: self.oracle_type(FILE_CAP)}}

    def body(self, fs, state: dict) -> None:
        handle = state["handle"]
        oracle = state["oracles"][self.fname]
        rng = random.Random(self.seed)
        span = FILE_CAP - max(self.sizes)
        pos = 0
        for i in range(self.nops):
            size = self.sizes[rng.randrange(len(self.sizes))]
            if self.sequential:
                off = pos
                pos = (pos + size) % span
            else:
                off = rng.randrange(0, span)
                off -= off % self.align
            oracle.write(handle, off, bytes([1 + i % 250]) * size)
            if (i + 1) % self.fsync_every == 0:
                oracle.fsync(handle)


class TxnSweepWorkload(SweepWorkload):
    """Plain writes interleaved with multi-write transactions: staged
    writes must roll back, committed groups must appear atomically."""

    name = "txn-mixed"
    description = "plain writes + 2-3-write transactions (commit and rollback)"
    alias = "txn"

    def __init__(self, rounds: int = 45, seed: int = 0x7A7) -> None:
        self.rounds = rounds
        self.seed = seed

    def setup(self, fs) -> dict:
        handle = fs.create("t", capacity=FILE_CAP)
        return {"handle": handle, "oracles": {"t": FileOracle(FILE_CAP)}}

    def body(self, fs, state: dict) -> None:
        handle = state["handle"]
        oracle = state["oracles"]["t"]
        rng = random.Random(self.seed)
        span = FILE_CAP - 4096
        for i in range(self.rounds):
            # One plain synchronized write.
            off = rng.randrange(0, span)
            oracle.write(handle, off, bytes([1 + i % 250]) * rng.choice([256, 1024]))

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
                with oracle.atomic(group):
                    txn.commit()


class YcsbSweepWorkload(SweepWorkload):
    """YCSB-A-style update-heavy mix through the embedded database.

    The DB's own WAL defines its content semantics, so this workload
    carries no byte-level oracle — the sweep still proves the MGSP layer
    recovers (structural invariants + recovery idempotence) under
    key-value traffic with its many small co-located writes.
    """

    name = "ycsb-a"
    description = "update-heavy KV mix via the embedded DB (structural checks)"
    alias = "ycsb"

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


class NovaSweepWorkload(FioSweepWorkload):
    """NOVA under the sweep: per-operation CoW atomicity, checked through
    :meth:`repro.fs.nova.Nova.recover` (journal roll-forward).

    The MGSP config axis does not apply — NOVA is its own protocol — so
    only one config is scheduled; the name is accepted and ignored.
    """

    subject = "nova"
    supported_configs = ("sync",)
    fname = "n"

    def make_system(self, config_name: str):
        from repro.fs.nova import Nova

        return Nova(device_size=DEVICE_SIZE)

    def check(self, image, config_name, oracles, idempotence=True) -> List[str]:
        from repro.crashsweep.invariants import content_violations, idempotence_violations
        from repro.fs.nova import Nova

        try:
            fs = Nova.recover(NvmDevice.from_image(image))
        except Exception as exc:
            return [f"NOVA recovery raised {type(exc).__name__}: {exc}"]
        violations = content_violations(
            lambda name, n: fs.open(name).read(0, n).ljust(n, b"\0"), oracles
        )
        if idempotence:

            def recover_again(device: NvmDevice) -> str:
                Nova.recover(device)
                return ""

            violations += idempotence_violations(
                fs.device, recover_again, "NOVA recovery", "second NOVA recovery raised {exc!r}"
            )
        return violations


class LibnvmmioSweepWorkload(FioSweepWorkload):
    """Libnvmmio under the sweep, at the fsync-granular byte-wise level.
    Write-only streams keep every epoch in redo mode — the undo epoch
    writes in place and deliberately breaks crash atomicity between
    syncs (pinned by the baseline-semantics tests), which no byte-wise
    oracle can bound."""

    subject = "libnvmmio"
    supported_configs = ("sync",)
    oracle_type = FsyncOracle
    fname = "l"

    def make_system(self, config_name: str):
        from repro.fs.libnvmmio import Libnvmmio

        return Libnvmmio(device_size=DEVICE_SIZE)

    def check(self, image, config_name, oracles, idempotence=True) -> List[str]:
        from repro.crashsweep.invariants import content_violations
        from repro.fs.libnvmmio import Libnvmmio
        from repro.fsapi.layout import VolumeLayout
        from repro.fsapi.volume import Volume

        device = NvmDevice.from_image(image)
        try:
            volume = Volume.mount(
                device,
                VolumeLayout.for_device(device.size, log_fraction=Libnvmmio.log_fraction),
            )
        except Exception as exc:
            return [f"Libnvmmio remount raised {type(exc).__name__}: {exc}"]
        # No recovery pass exists to re-run: idempotence is vacuous here.
        return content_violations(
            lambda name, n: device.buffer.load(volume.lookup(name).base, n), oracles
        )


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
    subject = "pqueue"
    alias = "mpsc"
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
        FioSweepWorkload("fio-randwrite", "randwrite, 300 ops, fsync every 4",
                         (64, 512, 2048, 4096), nops=300, fsync_every=4, seed=0xF10,
                         alias="fio"),
        FioSweepWorkload("fio-write", "write, 300 ops, fsync every 8", (64, 512, 2048, 4096),
                         nops=300, fsync_every=8, seed=0xF11, sequential=True),
        TxnSweepWorkload(),
        YcsbSweepWorkload(),
        NovaSweepWorkload("nova-fio", "NOVA CoW randwrite, 40 ops (per-op atomic oracle)",
                          (512, 4096, 8192), nops=40, fsync_every=8, seed=0x404A, alias="fio"),
        # Page-aligned multi-page bursts: stress the chunked journal commit.
        NovaSweepWorkload("nova-txn", "NOVA CoW multipage, 24 ops (per-op atomic oracle)",
                          (8192, 12288, 20480), nops=24, fsync_every=8, seed=0x404B,
                          align=4096, alias="txn"),
        LibnvmmioSweepWorkload("libnvmmio-fio",
                               "Libnvmmio redo-log randwrite, 48 ops, fsync every 6",
                               (64, 1024, 4096), nops=48, fsync_every=6, seed=0x11B0,
                               alias="fio"),
        LibnvmmioSweepWorkload("libnvmmio-txn", "Libnvmmio redo-log write, 36 ops, fsync every 4",
                               (2048, 4096), nops=36, fsync_every=4, seed=0x11B1,
                               sequential=True, alias="txn"),
        PqueueSweepWorkload(),
    )
}


def registry() -> Dict[str, SweepWorkload]:
    """:data:`WORKLOADS` plus the planted-bug fixtures, which live in
    :mod:`repro.infer.fixtures` so the default sweep never schedules them."""
    from repro.infer.fixtures import FIXTURE_WORKLOADS

    return {**WORKLOADS, **FIXTURE_WORKLOADS}


def get_workload(name: str) -> SweepWorkload:
    workload = registry().get(name)
    if workload is None:
        raise ValueError(f"unknown workload {name!r}; choices: {sorted(WORKLOADS)}")
    return workload


def subjects() -> Dict[str, Tuple[str, Dict[str, str]]]:
    """The CLI subjects: ``--fs`` name -> (config, {alias -> registry
    name}). An aliased entry belongs to its ``subject`` under ``sync``
    and to ``<subject>-<config>`` under each other config it supports."""
    table: Dict[str, Tuple[str, Dict[str, str]]] = {}
    for workload in registry().values():
        for config in workload.supported_configs if workload.alias else ():
            fs = workload.subject if config == "sync" else f"{workload.subject}-{config}"
            table.setdefault(fs, (config, {}))[1][workload.alias] = workload.name
    return table


def resolve(fs: str, workload: str) -> Tuple[str, str]:
    """(registry name, config name) behind a CLI's subject and workload:
    *workload* is one of *fs*'s aliases or the registry name it stands for."""
    table = subjects()
    if fs not in table:
        raise ValueError(f"unknown fs {fs!r}; choices: {', '.join(sorted(table))}")
    config_name, aliases = table[fs]
    name = aliases.get(workload, workload if workload in aliases.values() else None)
    if name is None:
        raise ValueError(
            f"fs {fs!r} has no workload {workload!r}; choices: {', '.join(sorted(aliases))}"
        )
    return name, config_name
