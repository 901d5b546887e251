"""Crash-injection demo: pull the plug mid-write, then recover.

Runs a random-write workload against MGSP, crashes the machine at an
arbitrary persistence event with adversarial cache-line loss, recovers
from the metadata log, and verifies that

- every completed write survived (durability), and
- the in-flight write is all-or-nothing (atomicity).

Run:  python examples/crash_recovery.py
"""

import random

from repro import MgspConfig, MgspFilesystem, NvmDevice, recover
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan

CAPACITY = 512 * 1024


def main() -> None:
    fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig())
    f = fs.create("victim.dat", capacity=CAPACITY)
    fs.device.drain()  # file creation is safely on media

    rng = random.Random(2024)
    reference = bytearray(CAPACITY)  # state after the last COMPLETED write
    in_flight = None

    # Crash somewhere inside roughly the 40th write.
    fs.device.attach(CrashPlan(crash_after=1500))
    completed = 0
    try:
        while True:
            off = rng.randrange(0, CAPACITY - 1)
            length = min(rng.choice([64, 700, 4096, 30000]), CAPACITY - off)
            payload = bytes([rng.randrange(1, 256)]) * length
            in_flight = (off, length, payload)
            f.write(off, payload)
            reference[off : off + length] = payload
            in_flight = None
            completed += 1
    except CrashRequested:
        pass
    print(f"CRASH after {completed} completed writes "
          f"(one write in flight: {in_flight is not None})")

    # Compose a post-crash image: each unfenced 8-byte word independently
    # survives with p=0.5 (cache lines evict whenever they like).
    image = fs.device.crash_image(rng=random.Random(7), persist_probability=0.5)

    # --- the machine reboots ------------------------------------------------
    device = NvmDevice.from_image(image)
    recovered_fs, stats = recover(device)
    print(f"recovery: {stats.entries_replayed} metadata-log entries replayed, "
          f"{stats.log_bytes_written_back:,} log bytes written back, "
          f"{stats.elapsed_ns / 1e6:.2f} ms of virtual time")

    f2 = recovered_fs.open("victim.dat")
    got = f2.read(0, f2.size).ljust(CAPACITY, b"\0")

    old = bytes(reference)
    if got == old:
        print("post-crash state == state after last completed write "
              "(in-flight write rolled back cleanly)")
    else:
        off, length, payload = in_flight
        new = bytearray(reference)
        new[off : off + length] = payload
        assert got == bytes(new), "corruption detected!"
        print(f"post-crash state includes the in-flight write "
              f"[{off}, {off + length}) in full (it had committed)")
    print("atomicity + durability verified.")


if __name__ == "__main__":
    main()
