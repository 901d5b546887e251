"""Exhaustive crash sweep of a multi-shard service workload (PR 8).

Two tenants on two shards, driven through the real service path
(admission → DRR drain → MGSP protocol). Shard 0's device is armed
with a :class:`CrashPlan` while shard 1 runs to completion; for every
crash point we enumerate persistence subsets of shard 0's unfenced
frontier and prove:

- **legal prefix** — shard 0 recovers to completed writes plus the
  in-flight one all-or-nothing (the MGSP contract);
- **per-shard independence** — shard 1's recovered content is the full
  workload regardless of where shard 0 crashed: shards are separate
  devices and namespaces never span them;
- **recovery idempotence** — recovering a recovered image is a fixed
  point, byte for byte.
"""

from __future__ import annotations

import itertools

from repro.core import recover
from repro.crashsweep.workloads import FileOracle
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice
from repro.service import MgspService, Request, ServiceConfig, ShardMap

BS = 1024
OPS = 12
CAPACITY = 16 << 10
MAX_ENUM_WORDS = 8


def _two_tenants():
    """First two names landing on different shards under ShardMap(2)."""
    m = ShardMap(2)
    by_shard = {}
    for i in range(64):
        name = f"t{i:04d}"
        by_shard.setdefault(m.shard_for(name), name)
        if len(by_shard) == 2:
            break
    return by_shard[0], by_shard[1]


def _requests():
    return [
        Request(kind="write", offset=i * BS, nbytes=BS, arrival_ns=i * 1000.0)
        for i in range(OPS)
    ]


def _payload(i: int) -> bytes:
    return bytes([i + 1]) * BS


def _build(crash_after):
    """Run the service workload with shard 0 armed to crash.

    Returns (service, tenants, oracles): one per-op level per shard,
    each write+fsync one atomic group — shard 0's oracle holds the
    in-flight one as pending. None if the crash never fired.
    """
    config = ServiceConfig(shards=2, device_size=16 << 20, file_capacity=CAPACITY)
    service = MgspService(config)
    t0, t1 = _two_tenants()
    for name in (t0, t1):
        service.register(name)
        for req in _requests():
            assert service.submit(name, req)

    oracles = {0: FileOracle(CAPACITY), 1: FileOracle(CAPACITY)}
    crashed = False

    # Shard 1 first: it must be fully durable before shard 0 crashes,
    # making any cross-shard disturbance observable.
    for shard, tenant in ((1, t1), (0, t0)):
        fs = service.shards[shard]
        if shard == 0:
            fs.device.attach(CrashPlan(crash_after))
        try:
            for name, req in service.schedulers[shard].drain():
                assert name == tenant
                session = service.sessions[name]
                fs.current_thread = session.thread
                payload = _payload(req.offset // BS)
                with oracles[shard].atomic([(req.offset, payload)]):
                    session.handle.write(req.offset, payload)
                    session.handle.fsync()
        except CrashRequested:
            assert shard == 0
            crashed = True
    if not crashed:
        return None
    return service, (t0, t1), oracles


def _recover_content(image: bytes, config, tenant: str):
    fs, _ = recover(NvmDevice.from_image(image), config=config)
    data = b""
    if fs.volume.exists(tenant):
        inode = fs.volume.lookup(tenant)
        if inode.size:
            data = fs.open(tenant).read(0, CAPACITY)
    return fs, data.ljust(CAPACITY, b"\0")


def test_service_crash_sweep_shard_independence_and_idempotence():
    checked = enumerated = 0
    shard1_contents = set()
    for crash_after in range(3, 900, 23):
        built = _build(crash_after)
        if built is None:
            break
        service, (t0, t1), oracles = built
        fs_config = service.config.make_fs_config()

        # Per-shard independence: shard 1 was never crashed; its image
        # (no extra persistence help at all) recovers to the full run.
        image1 = bytes(service.shards[1].device.crash_image(persist_words=()))
        _, got1 = _recover_content(image1, fs_config, t1)
        assert oracles[1].pending is None and got1 == oracles[1].synced
        shard1_contents.add(got1)

        words = service.shards[0].device.unfenced_words()
        if len(words) > MAX_ENUM_WORDS:
            continue
        checked += 1
        if enumerated > 400:
            break
        for r in range(len(words) + 1):
            for subset in itertools.combinations(words, r):
                enumerated += 1
                image0 = bytes(
                    service.shards[0].device.crash_image(persist_words=subset)
                )
                fs2, got0 = _recover_content(image0, fs_config, t0)
                why = oracles[0].illegal(got0)
                assert why is None, f"crash_after={crash_after} subset={subset}: {why}"
                # Idempotence: recovery output is a fixed point.
                stable = bytes(fs2.device.crash_image(persist_words=()))
                fs3, got_again = _recover_content(stable, fs_config, t0)
                assert got_again == got0
                assert bytes(fs3.device.crash_image(persist_words=())) == stable

    # Shard 1 recovered to the same bytes at every shard-0 crash point.
    assert len(shard1_contents) == 1
    assert checked >= 3, checked
    assert enumerated >= 40, enumerated
