"""The multi-tenant MGSP service front-end.

``MgspService`` multiplexes many simulated clients over N independent
MGSP shards:

1. **Registration** — each tenant gets a session: a shard picked by
   :class:`~repro.service.sharding.ShardMap`, one file in the shard's
   namespace, a per-shard replay-thread id, and a token bucket built
   from its :class:`~repro.service.admission.TenantQuota`.
2. **Admission** — requests are offered in global arrival order
   (virtual ns). Bucket-empty requests are rejected and counted;
   admitted ones enqueue into the shard's deficit-round-robin
   scheduler with their byte size as DRR cost.
3. **Dispatch** — each shard drains its DRR queue against the MGSP
   protocol, collecting per-tenant cost traces exactly like the FIO
   runner does per thread.
4. **Replay** — each shard's tenant streams (plus its async write-back
   daemon stream) replay through :class:`~repro.sim.engine.ReplayEngine`
   with ``start_times`` staggered to tenant arrival, so lock waits and
   channel saturation land on the virtual clock. Shards are independent
   devices running concurrently: service makespan is the max over
   shards.

Everything is keyed off seeded RNGs and the virtual clock — the module
lives under the checker's ``REPLAYABLE_PREFIXES`` and a fixed seed gives
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import MgspConfig, MgspFilesystem
from repro.obs import MetricsRegistry, attach_telemetry
from repro.service.admission import TenantQuota, TokenBucket
from repro.service.scheduler import DeficitRoundRobin
from repro.service.sharding import ShardMap
from repro.sim.engine import ReplayEngine
from repro.sim.trace import OpTrace


@dataclass(frozen=True)
class Request:
    """One client operation, timestamped at its virtual arrival."""

    kind: str  # "write" | "read"
    offset: int
    nbytes: int
    arrival_ns: float


@dataclass
class Session:
    """Per-tenant service state."""

    tenant: str
    shard: int
    thread: int  # replay-thread index within the shard
    handle: object
    bucket: TokenBucket
    traces: List[OpTrace] = field(default_factory=list)
    # pre-replay, contention-blind; read only by benchmarks/e2e (req_p99_ns)
    latencies_ns: List[float] = field(default_factory=list)
    bytes_written: int = 0
    bytes_read: int = 0
    first_arrival_ns: float = 0.0
    _arrived: bool = False

    def note_arrival(self, at_ns: float) -> None:
        if not self._arrived:
            self.first_arrival_ns = at_ns
            self._arrived = True


@dataclass
class TenantReport:
    tenant: str
    shard: int
    admitted: int
    rejected: int
    bytes_written: int


@dataclass
class ShardReport:
    shard: int
    tenants: int
    makespan_ns: float
    lock_wait_ns: float
    io_ns: float
    utilization: float  # busy channel time / (makespan * channels)


@dataclass
class ServiceReport:
    tenants: int
    shards: int
    makespan_ns: float
    total_bytes: int
    admitted: int
    rejected: int
    per_shard: List[ShardReport] = field(default_factory=list)
    per_tenant: List[TenantReport] = field(default_factory=list)

    @property
    def throughput_mb_s(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return (self.total_bytes / (1 << 20)) / (self.makespan_ns * 1e-9)


@dataclass
class ServiceConfig:
    shards: int = 1
    device_size: int = 64 << 20
    file_capacity: int = 64 << 10
    quota: TenantQuota = field(default_factory=TenantQuota)
    drr_quantum: int = 8192
    fs_config: Optional[MgspConfig] = None
    #: attach span/byte telemetry to every shard (off = bare shards;
    #: reports and device state must be identical either way)
    telemetry: bool = True
    #: attach a flight recorder of this capacity to every shard
    #: (0 = unbounded; None = no recorder)
    flight_capacity: Optional[int] = None
    #: keep per-thread replay timelines — the source for per-tenant
    #: Perfetto lanes
    record_timeline: bool = False
    #: write a black-box bundle here when a tenant request errors
    bundle_dir: Optional[str] = None

    def make_fs_config(self) -> MgspConfig:
        if self.fs_config is not None:
            return self.fs_config
        # Async write-back on: each shard replays a daemon flusher
        # stream, which is where multi-tenant channel contention shows.
        return MgspConfig(async_writeback=True, writeback_epoch_bytes=256 << 10)


class MgspService:
    """Multi-tenant front-end over sharded MGSP filesystems."""

    def __init__(self, config: ServiceConfig, registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shard_map = ShardMap(config.shards)
        fs_config = config.make_fs_config()
        self.shards: List[MgspFilesystem] = []
        self.flights: List[object] = []
        self.timelines: List[List[tuple]] = []
        self.lane_names: List[List[str]] = []
        self.error_bundles: List[Dict[str, object]] = []
        for _ in range(config.shards):
            fs = MgspFilesystem(device_size=config.device_size, config=fs_config)
            if config.telemetry:
                attach_telemetry(fs, registry=self.registry)
            fs.device.drain()
            if config.flight_capacity is not None:
                from repro.obs.flight import attach_flight

                self.flights.append(
                    attach_flight(fs, capacity=config.flight_capacity)
                )
            else:
                self.flights.append(None)
            self.shards.append(fs)
        self.schedulers = [DeficitRoundRobin(config.drr_quantum) for _ in range(config.shards)]
        self.sessions: Dict[str, Session] = {}
        self._threads_per_shard = [0] * config.shards

    # -- tenant lifecycle --------------------------------------------------

    def register(self, tenant: str) -> Session:
        """Create a session (and the tenant's backing file) on its shard."""
        if tenant in self.sessions:
            raise ValueError(f"tenant {tenant!r} already registered")
        if len(tenant) > 16:
            raise ValueError(f"tenant name too long for an inode slot: {tenant!r}")
        shard = self.shard_map.shard_for(tenant)
        fs = self.shards[shard]
        handle = fs.create(tenant, capacity=self.config.file_capacity)
        fs.take_traces()  # setup cost is not tenant traffic
        session = Session(
            tenant=tenant,
            shard=shard,
            thread=self._threads_per_shard[shard],
            handle=handle,
            bucket=TokenBucket(self.config.quota),
        )
        self._threads_per_shard[shard] += 1
        self.sessions[tenant] = session
        self.registry.gauge("service_tenants", shard=str(shard)).add(1)
        return session

    # -- admission + scheduling -------------------------------------------

    def submit(self, tenant: str, request: Request) -> bool:
        """Offer one request; False means the quota rejected it."""
        session = self.sessions[tenant]
        if not session.bucket.admit(request.arrival_ns):
            self.registry.counter(
                "service_admission_rejects_total", shard=str(session.shard)
            ).inc()
            return False
        session.note_arrival(request.arrival_ns)
        self.schedulers[session.shard].enqueue(tenant, request, request.nbytes)
        return True

    # -- dispatch + replay -------------------------------------------------

    def _dispatch_shard(self, shard: int) -> None:
        """Execute the shard's DRR order against the MGSP protocol."""
        fs = self.shards[shard]
        for tenant, request in self.schedulers[shard].drain():
            session = self.sessions[tenant]
            fs.current_thread = session.thread
            try:
                if request.kind == "write":
                    session.handle.write(request.offset, b"\xab" * request.nbytes)
                    session.handle.fsync()
                    session.bytes_written += request.nbytes
                elif request.kind == "read":
                    session.handle.read(request.offset, request.nbytes)
                    session.bytes_read += request.nbytes
                else:
                    raise ValueError(f"unknown request kind {request.kind!r}")
            except Exception as exc:
                self._note_tenant_error(shard, tenant, request, exc)
                raise
            new = fs.take_traces()
            session.traces.extend(new)
            if new:
                session.latencies_ns.append(
                    sum(tr.duration_ns(fs.timing.lock_ns) for tr in new)
                )

    def _note_tenant_error(self, shard: int, tenant: str, request: Request,
                           exc: BaseException) -> None:
        """Record a black-box bundle for a failing tenant request before
        the error propagates."""
        from repro.obs import blackbox

        self.registry.counter(
            "service_tenant_errors_total", shard=str(shard)
        ).inc()
        bundle = blackbox.service_error_bundle(self, shard, tenant, request, exc)
        self.error_bundles.append(bundle)
        if self.config.bundle_dir:
            blackbox.write_bundle(
                bundle,
                self.config.bundle_dir,
                name=f"blackbox-service-error-shard{shard}-{tenant}.json",
            )

    def _replay_shard(self, shard: int) -> ShardReport:
        fs = self.shards[shard]
        shard_sessions = sorted(
            (s for s in self.sessions.values() if s.shard == shard),
            key=lambda s: s.thread,
        )
        for session in shard_sessions:
            fs.current_thread = session.thread
            fs.end_thread(session.thread)
            session.traces.extend(fs.take_traces())
        streams = [session.traces for session in shard_sessions]
        starts = [session.first_arrival_ns for session in shard_sessions]
        bg = fs.take_bg_traces()
        daemon = 0
        if bg:
            streams.append(bg)
            starts.append(0.0)
            daemon = 1 if fs.bg_daemon else 0
        engine = ReplayEngine(fs.timing, obs=fs.obs)
        result = engine.run(
            streams,
            background=daemon,
            start_times=starts,
            record_timeline=self.config.record_timeline,
        )
        if self.config.record_timeline:
            names = [session.tenant for session in shard_sessions]
            if daemon:
                names.append("writeback")
            self.timelines.append(list(result.timeline))
            self.lane_names.append(names)
        io_ns = sum(t.io_ns for t in result.threads)
        channels = max(1, fs.timing.channels)
        util = (
            io_ns / (result.makespan_ns * channels) if result.makespan_ns > 0 else 0.0
        )
        self.registry.gauge("service_shard_utilization", shard=str(shard)).set(util)
        self.registry.gauge("service_shard_makespan_ns", shard=str(shard)).set(
            result.makespan_ns
        )
        return ShardReport(
            shard=shard,
            tenants=len(shard_sessions),
            makespan_ns=result.makespan_ns,
            lock_wait_ns=result.total_lock_wait_ns,
            io_ns=io_ns,
            utilization=util,
        )

    def run(self) -> ServiceReport:
        """Dispatch everything queued and replay all shards."""
        per_shard = []
        for shard in range(self.config.shards):
            self._dispatch_shard(shard)
            per_shard.append(self._replay_shard(shard))

        per_tenant: List[TenantReport] = []
        admitted = rejected = total_bytes = 0
        for tenant in sorted(self.sessions):
            session = self.sessions[tenant]
            admitted += session.bucket.admitted
            rejected += session.bucket.rejected
            total_bytes += session.bytes_written + session.bytes_read
            per_tenant.append(
                TenantReport(
                    tenant=tenant,
                    shard=session.shard,
                    admitted=session.bucket.admitted,
                    rejected=session.bucket.rejected,
                    bytes_written=session.bytes_written,
                )
            )
        return ServiceReport(
            tenants=len(self.sessions),
            shards=self.config.shards,
            makespan_ns=max((s.makespan_ns for s in per_shard), default=0.0),
            total_bytes=total_bytes,
            admitted=admitted,
            rejected=rejected,
            per_shard=per_shard,
            per_tenant=per_tenant,
        )


def tenant_requests(
    tenant_index: int,
    ops: int,
    bs: int,
    file_capacity: int,
    seed: int,
    mean_gap_ns: float = 2_000.0,
    read_ratio: float = 0.0,
) -> List[Request]:
    """Seeded per-tenant request stream with staggered virtual arrivals."""
    import random

    rng = random.Random(seed * 1_000_003 + tenant_index)
    max_blocks = max(1, file_capacity // bs)
    arrival = rng.uniform(0.0, mean_gap_ns)
    out: List[Request] = []
    for _ in range(ops):
        kind = "read" if rng.random() < read_ratio else "write"
        out.append(
            Request(
                kind=kind,
                offset=rng.randrange(max_blocks) * bs,
                nbytes=bs,
                arrival_ns=arrival,
            )
        )
        arrival += rng.uniform(0.5, 1.5) * mean_gap_ns
    return out


def run_service_workload(
    config: ServiceConfig,
    tenants: int,
    ops_per_tenant: int = 8,
    bs: int = 1024,
    seed: int = 42,
    mean_gap_ns: float = 2_000.0,
    read_ratio: float = 0.0,
    registry: Optional[MetricsRegistry] = None,
    return_service: bool = False,
):
    """Register *tenants* clients, offer their seeded streams in global
    arrival order, and run the service.

    Returns the :class:`ServiceReport`, or ``(report, service)`` when
    *return_service* is true (exporters need the live service for
    timelines, flight recorders, and conservation checks)."""
    service = MgspService(config, registry=registry)
    names = [f"t{idx:04d}" for idx in range(tenants)]
    for name in names:
        service.register(name)
    offered: List[tuple] = []
    for idx, name in enumerate(names):
        for request in tenant_requests(
            idx,
            ops_per_tenant,
            bs,
            config.file_capacity,
            seed,
            mean_gap_ns=mean_gap_ns,
            read_ratio=read_ratio,
        ):
            offered.append((request.arrival_ns, idx, name, request))
    offered.sort(key=lambda item: (item[0], item[1]))
    for _, _, name, request in offered:
        service.submit(name, request)
    report = service.run()
    if return_service:
        return report, service
    return report
