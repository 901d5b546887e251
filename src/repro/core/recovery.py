"""Crash recovery (§III-D "Close and Recovery").

Given a post-crash device image:

1. mount the volume (namespace is rebuilt from the superblock);
2. scan the metadata log: every checksum-valid, un-retired entry is an
   operation whose data logs are durable (the entry is persisted only
   after the data fence) but whose bitmap commits may be incomplete —
   roll it forward by re-applying the recorded valid-bit words and file
   size, then retire the entry;
3. write every fresh log byte back into its file and clear the node
   tables, leaving plain files and an empty log area.

Replaying an already-applied entry is idempotent (the words are absolute
values), so recovery itself may crash and be rerun.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import bitmap
from repro.core.config import MgspConfig
from repro.core.metalog import MetaEntry
from repro.core.mgsp import MgspFilesystem
from repro.core.radix import RadixTree
from repro.core.shadowlog import ShadowLog
from repro.errors import FileNotFound
from repro.nvm.device import NvmDevice


@dataclass
class RecoveryStats:
    entries_replayed: int = 0
    entries_discarded: int = 0  # orphaned (uncommitted) transaction members
    files_scanned: int = 0
    log_bytes_written_back: int = 0
    elapsed_ns: float = 0.0
    replayed_files: List[str] = field(default_factory=list)


def recover(
    device: NvmDevice,
    config: Optional[MgspConfig] = None,
    timing=None,
    telemetry=None,
) -> tuple:
    """Recover a crashed MGSP device image.

    Returns ``(fs, stats)`` — a freshly mounted :class:`MgspFilesystem`
    whose files are plain (all logs written back) plus statistics. The
    elapsed time is virtual (from the mounted FS's cost recorder).
    Pass a :class:`repro.obs.spans.Telemetry` as *telemetry* to attach
    it to the remounted filesystem and get per-phase recovery spans.
    """
    config = config or MgspConfig()
    fs = MgspFilesystem.remount(device, config=config, timing=timing)
    if telemetry is not None:
        from repro.obs.spans import attach_telemetry

        attach_telemetry(fs, telemetry=telemetry)
    obs = fs.obs
    stats = RecoveryStats()
    recorder = fs.recorder
    recorder.begin_op("recovery")

    # Phase 1: roll forward committed-but-unapplied operations.
    # Transaction groups (chained entries) are applied only when their
    # commit-flagged entry survived; orphaned members are discarded.
    frame = obs.span_begin("recovery.rollforward") if obs.enabled else None
    trees: Dict[int, RadixTree] = {}
    entries = fs.metalog.scan()
    committed_txns = {e.txn_id for e in entries if e.is_txn_member and e.is_txn_commit}
    replayed = []
    for entry in entries:
        if entry.is_txn_member and entry.txn_id not in committed_txns:
            replayed.append(entry)
            stats.entries_discarded += 1
            continue
        if _replay_entry(fs, trees, entry):
            stats.entries_replayed += 1
        else:
            # Entry for a since-unlinked file: its retire word was lost
            # in the crash but the unlink persisted. Nothing to roll
            # forward — discard it, and still retire it below so a
            # re-crashed recovery does not see it again.
            stats.entries_discarded += 1
        replayed.append(entry)
    # Fence the applied words BEFORE retiring: a crash must never leave
    # a retired entry whose effects were lost.
    device.fence()
    for entry in replayed:
        fs.metalog.retire(entry.index)
    device.fence()
    if frame is not None:
        obs.span_end(frame)
        frame = obs.span_begin("recovery.writeback")

    # Phase 2: write logs back and reset the trees.
    for inode in fs.volume.files():
        if not inode.node_table_len:
            continue
        tree = trees.get(inode.id)
        if tree is None:
            tree = RadixTree(device, inode, config)
            tree.load_from_table()
        stats.files_scanned += 1
        if not tree.nodes:
            continue
        shadow = ShadowLog(tree, device, fs.logs, inode, config)
        copied = shadow.write_back(obs)
        if copied:
            stats.replayed_files.append(inode.name)
        stats.log_bytes_written_back += copied
        tree.clear_table()

    fs.logs.reset()
    if frame is not None:
        obs.span_end(frame)
        reg = obs.registry
        reg.gauge("recovery_entries_replayed").set(stats.entries_replayed)
        reg.gauge("recovery_entries_discarded").set(stats.entries_discarded)
        reg.gauge("recovery_log_bytes_written_back").set(stats.log_bytes_written_back)
    trace = recorder.end_op()
    stats.elapsed_ns = trace.duration_ns(fs.timing.lock_ns)
    return fs, stats


def _replay_entry(fs: MgspFilesystem, trees: Dict[int, RadixTree], entry: MetaEntry) -> bool:
    """Roll *entry* forward; ``False`` if its file no longer exists."""
    try:
        inode = fs.volume.by_id(entry.file_id)
    except FileNotFound:  # entry for an unlinked file: nothing to do
        return False
    tree = trees.get(inode.id)
    if tree is None:
        tree = RadixTree(fs.device, inode, fs.config)
        tree.load_from_table()
        trees[inode.id] = tree

    # The entry's size is the post-op size; sizes only grow.
    if entry.file_size > inode.size:
        fs.volume.set_size_volatile(inode, entry.file_size)
        fs.volume.persist_size(inode)
        tree.height = tree._height_for(inode.size)

    words = []
    for slot in entry.slots:
        level = tree._level_of_slot(slot.ordinal)
        index = slot.ordinal - tree.level_base[level]
        node = tree.node(level, index)
        if node.log_off == 0:
            # Reload the (possibly crash-surviving) log pointer.
            node.log_off = fs.device.buffer.load_u64(node.slot_off + 8)
        if slot.is_leaf:
            word = bitmap.pack_leaf(slot.leaf_mask, entry.gen)
        else:
            word = bitmap.pack_nonleaf(slot.valid, False, entry.gen, entry.gen)
        words.append((node, word))
    tree.store_words(words)
    tree.gen = max(tree.gen, entry.gen)
    return True
