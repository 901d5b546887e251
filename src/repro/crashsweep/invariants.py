"""The MGSP crash-consistency invariant checker.

Given a composed post-crash image, mount it through
:func:`repro.core.recovery.recover` and assert everything §III-D
promises. Checks, in order:

1. **Recovery terminates** without raising — any exception is a
   violation (a checksum-valid metalog entry must never brick a mount).
2. **Entry conservation**: every checksum-valid un-retired entry visible
   in the raw image is either replayed or deliberately discarded, and
   the metalog is empty after recovery (no retired-but-lost entries, no
   survivors to re-apply).
3. **Plain files**: every node table is durably cleared and the log
   area is reclaimed — recovery leaves no fresh-log indirection behind.
4. **Content legality**: each oracle file reads back a state its
   consistency level permits (:func:`content_violations`, the one
   content check the NOVA and Libnvmmio checkers share).
5. **Idempotence**: recovering the recovered image again is a byte-level
   no-op (recovery itself may crash and be rerun, so it must be a
   fixpoint).

Every violation is returned as a human-readable string; an empty list
means the image passed.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.metalog import ENTRY_SIZE, METALOG_ENTRIES, decode_entry
from repro.core.mgsp import MgspFilesystem
from repro.core.radix import RadixTree
from repro.core.recovery import recover
from repro.fsapi.layout import VolumeLayout
from repro.nvm.device import NvmDevice

from repro.crashsweep.workloads import FileOracle, FsyncOracle, make_config


def pending_entries(image: bytes) -> int:
    """Checksum-valid, un-retired metalog entries in a raw crash image."""
    layout = VolumeLayout.for_device(len(image), log_fraction=MgspFilesystem.log_fraction)
    start = layout.metalog.start
    return sum(
        decode_entry(idx, image[start + idx * ENTRY_SIZE : start + (idx + 1) * ENTRY_SIZE])
        is not None
        for idx in range(METALOG_ENTRIES)
    )


def idempotence_violations(
    first: NvmDevice,
    recover_again: Callable[[NvmDevice], str],
    subject: str,
    raised: str,
) -> List[str]:
    """Recovery must be a fixpoint: *first* is a device recovery already
    ran on; drain it, boot a second device from its durable image, run
    *recover_again* on that, drain, and the two durable images must be
    byte-identical. *recover_again* returns a suffix for the violation
    (what the second pass did, or ``""``); *raised* is the violation for
    a second pass that raises, a format of ``{kind}`` and ``{exc}``."""
    # Both are devices booted from an image, the second from the first's
    # durable image: the two share one base, so the boot copies and the
    # comparison reads only the pages either recovery wrote. The
    # comparison is still of every byte that can differ.
    first.drain()
    before = first.buffer.durable
    second = NvmDevice.from_image(before)
    try:
        did = recover_again(second)
    except Exception as exc:
        return [raised.format(kind=type(exc).__name__, exc=exc)]
    second.drain()
    after = second.buffer.durable
    if after == before:
        return []
    diff = sum(a != b for a, b in zip(bytes(before), bytes(after)))
    return [f"{subject} is not idempotent: second pass changed {diff} bytes{did}"]


def content_violations(
    read: Callable[[str, int], bytes], oracles: Dict[str, FileOracle | FsyncOracle]
) -> List[str]:
    """Every oracle's file, as ``read(name, capacity)`` returns it after
    recovery, must be a state the oracle's consistency level permits."""
    violations: List[str] = []
    for name, oracle in oracles.items():
        try:
            got = read(name, oracle.capacity)
        except Exception as exc:
            violations.append(f"{name}: unreadable after recovery: {exc!r}")
            continue
        why = oracle.illegal(got)
        if why is not None:
            violations.append(f"{name}: {why}")
    return violations


def check_image(
    image: bytes,
    config_name: str,
    oracles: Dict[str, FileOracle],
    idempotence: bool = True,
) -> List[str]:
    """Run every invariant against one post-crash image."""
    violations: List[str] = []
    config = make_config(config_name)
    visible = pending_entries(image)

    try:
        fs, stats = recover(NvmDevice.from_image(image), config=config)
    except Exception as exc:
        return [f"recovery raised {type(exc).__name__}: {exc}"]

    if stats.entries_replayed + stats.entries_discarded != visible:
        violations.append(
            f"entry conservation: {visible} entries visible in the image but "
            f"{stats.entries_replayed} replayed + {stats.entries_discarded} discarded"
        )
    leftover = fs.metalog.scan()
    if leftover:
        violations.append(
            f"metalog not empty after recovery: {len(leftover)} live entries"
        )

    for inode in fs.volume.files():
        if not inode.node_table_len:
            continue
        tree = RadixTree(fs.device, inode, config)
        tree.load_from_table()
        if tree.nodes:
            violations.append(
                f"{inode.name}: node table not cleared after recovery "
                f"({len(tree.nodes)} live slots)"
            )
    if fs.logs.in_use:
        violations.append(f"log area not reclaimed: {fs.logs.in_use} bytes live")

    violations += content_violations(
        lambda name, n: fs.open(name).read(0, n).ljust(n, b"\0"), oracles
    )

    if idempotence:

        def recover_again(device: NvmDevice) -> str:
            _, again = recover(device, config=make_config(config_name))
            return f" (replayed {again.entries_replayed}, discarded {again.entries_discarded})"

        violations += idempotence_violations(
            fs.device, recover_again, "recovery", "second recovery raised {kind}: {exc}"
        )
    return violations
