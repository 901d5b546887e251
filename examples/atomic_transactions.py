"""Failure-atomic multi-write transactions (the paper's future work).

A toy bank ledger keeps one fixed-size account record per slot in a
single file. A transfer must debit one account and credit another —
atomically, across crashes. With plain files you need a WAL; with MGSP
transactions the file system gives you the group commit directly.

Run:  python examples/atomic_transactions.py
"""

import random
import struct

from repro import MgspFilesystem, NvmDevice, recover
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan

ACCOUNTS = 64
RECORD = struct.Struct("<q56x")  # balance + padding = one cache line


def balance(handle, account: int) -> int:
    raw = handle.read(account * RECORD.size, RECORD.size)
    return RECORD.unpack(raw.ljust(RECORD.size, b"\0"))[0] if raw else 0


def main() -> None:
    fs = MgspFilesystem(device_size=64 << 20)
    ledger = fs.create("ledger", capacity=1 << 20)

    # Seed every account with 1000 units.
    for account in range(ACCOUNTS):
        ledger.write(account * RECORD.size, RECORD.pack(1000))
    fs.device.drain()
    total0 = sum(balance(ledger, a) for a in range(ACCOUNTS))
    print(f"initial total: {total0}")

    # Random transfers, each as one FS-level transaction... until the
    # machine dies mid-stream.
    rng = random.Random(42)
    fs.device.attach(CrashPlan(crash_after=2000))
    transfers = 0
    try:
        while True:
            src, dst = rng.sample(range(ACCOUNTS), 2)
            amount = rng.randrange(1, 200)
            with fs.begin_transaction(ledger) as txn:
                txn.write(src * RECORD.size, RECORD.pack(balance(ledger, src) - amount))
                txn.write(dst * RECORD.size, RECORD.pack(balance(ledger, dst) + amount))
            transfers += 1
    except CrashRequested:
        pass
    print(f"CRASH after {transfers} committed transfers (one possibly in flight)")

    # Reboot with adversarial cache-line loss; recover; audit the books.
    image = fs.device.crash_image(rng=random.Random(7))
    recovered, stats = recover(NvmDevice.from_image(image))
    ledger2 = recovered.open("ledger")
    total1 = sum(balance(ledger2, a) for a in range(ACCOUNTS))
    print(f"entries replayed: {stats.entries_replayed}, "
          f"orphaned txn members discarded: {stats.entries_discarded}")
    print(f"post-crash total: {total1}")
    assert total1 == total0, "money was created or destroyed!"
    print("conservation of money verified — no torn transfers.")


if __name__ == "__main__":
    main()
