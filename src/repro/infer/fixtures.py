"""Planted-bug fixtures for the inference pipeline's own tests and CI.

``toy-misordered`` is a deliberately broken commit protocol on a raw
device: each record's *commit word* is flushed and fenced while the
record *data* is still sitting dirty in the cache — the classic
commit-before-data crash bug. A crash right after the commit fence can
persist the commit and drop (or tear) the data.

The miner sees ``persist-before(toy_data → toy_commit)`` hold in every
trace (the data store does come first program-order-wise) but at
``dirty`` durability, and the falsifier's surgical image — commit word
kept, data words dropped — makes recovery observe a committed record
with garbage payload: a true bug, with a one-word minimized reproducer.

These fixtures are *not* in the crashsweep registry (the CI sweep must
stay green); ``get_workload`` resolves them lazily by name so
``--at N`` reproducer lines still replay.
"""

from __future__ import annotations

import zlib

from repro.nvm.device import NvmDevice

from repro.crashsweep.workloads import RawSystem, SweepWorkload

DATA0 = 4096
RECSZ = 128
COMMIT0 = 64 << 10
NREC = 12


def payload_for(seq: int) -> bytes:
    return bytes((seq * 37 + j) % 251 for j in range(RECSZ))


def commit_word(seq: int) -> int:
    crc = zlib.crc32(seq.to_bytes(4, "little")) & 0xFFFFFFFF
    return ((seq & 0xFFFFFFFF) << 32) | crc


class ToyRegionMap:
    """Region classifier for the toy record log."""

    def classify(self, offset: int) -> str:
        if DATA0 <= offset < DATA0 + NREC * RECSZ:
            return "toy_data"
        if COMMIT0 <= offset < COMMIT0 + NREC * 8:
            return "toy_commit"
        return "unmapped"


class ToyMisorderedWorkload(SweepWorkload):
    """Append NREC records with the commit fence in the wrong place."""

    name = "toy-misordered"
    description = "planted bug: commit word fenced before its data"
    subject = "planted"
    alias = "toy"
    supported_configs = ("sync",)

    def make_system(self, config_name: str):
        return RawSystem(device_size=128 << 10)

    def region_map(self, system):
        return ToyRegionMap()

    def setup(self, system) -> dict:
        return {"oracles": {}}

    def body(self, system, state: dict) -> None:
        device = system.device
        for i in range(NREC):
            seq = i + 1
            with system.op("record"):
                # BUG: plain cached store, then the commit is made durable
                # while the data is still dirty. The trailing persist()
                # "works on the happy path" — only a crash exposes it.
                device.store(DATA0 + i * RECSZ, payload_for(seq))  # analysis: allow(raw-store-outside-protocol) -- planted-bug fixture: the mis-ordering IS the subject
                device.atomic_store_u64(COMMIT0 + i * 8, commit_word(seq))
                device.flush(COMMIT0 + i * 8, 8)
                device.fence()
                device.persist(DATA0 + i * RECSZ, RECSZ)

    def check(self, image, config_name, oracles, idempotence: bool = True):
        device = NvmDevice.from_image(image)
        violations = []
        for i in range(NREC):
            seq = i + 1
            commit = device.buffer.load_u64(COMMIT0 + i * 8)
            if commit == 0:
                continue  # never committed: any data state is legal
            if commit != commit_word(seq):
                violations.append(f"record {seq}: corrupt commit word {commit:#x}")
                continue
            data = device.buffer.load(DATA0 + i * RECSZ, RECSZ)
            if data != payload_for(seq):
                violations.append(
                    f"record {seq}: committed but payload is torn/missing"
                )
        return violations


FIXTURE_WORKLOADS = {ToyMisorderedWorkload.name: ToyMisorderedWorkload()}
