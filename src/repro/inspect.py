"""Human-readable introspection of simulated state (debugging aids).

All functions return strings; nothing here mutates state. Typical use
in a REPL or a failing test::

    from repro.inspect import dump_tree
    print(dump_tree(handle))
"""

from __future__ import annotations

from repro.core import bitmap
from repro.util import fmt_size


def render_breakdown(rows, total: float, unit: str = "ns", width: int = 40) -> str:
    """Render ``(label, value)`` rows as a bar-chart table.

    Shared by the telemetry exporters (fig13-style layer breakdowns)
    and ad-hoc debugging. Values must be in *unit*; percentages and
    bars are relative to *total* (pass the conserved total so the
    column sums visibly to 100%). Zero rows are kept — a zero line in
    a breakdown is information, not noise.
    """
    label_w = max([len(str(label)) for label, _ in rows] + [5])
    lines = [f"{'layer':<{label_w}}  {unit:>14}  {'%':>6}  "]
    for label, value in rows:
        pct = 100.0 * value / total if total else 0.0
        bar = "#" * int(round(width * value / total)) if total > 0 else ""
        lines.append(f"{label:<{label_w}}  {value:>14,.0f}  {pct:>6.1f}  {bar}")
    lines.append(f"{'total':<{label_w}}  {total:>14,.0f}  {100.0 if total else 0.0:>6.1f}")
    return "\n".join(lines)


def dump_tree(handle, max_nodes: int = 200) -> str:
    """Render an MGSP file's materialized radix nodes, top-down."""
    tree = handle.tree
    stats = handle.shadow.stats
    lines = [
        f"{handle.inode.name}: height={tree.height} "
        f"covered={fmt_size(tree.covered())} gen={tree.gen} "
        f"nodes={len(tree.nodes)}",
        f"  commits: redo={stats.redo_commits} undo={stats.undo_commits} "
        f"coarse={stats.coarse_commits} fine={stats.fine_commits} "
        f"sub-block={stats.sub_block_writes} rmw={stats.rmw_fill_bytes:,}B "
        f"logs={stats.logs_allocated}",
    ]
    shown = 0
    for (level, index) in sorted(tree.nodes, key=lambda k: (-k[0], k[1])):
        node = tree.nodes[(level, index)]
        if not node.word and not node.log_off:
            continue
        if shown >= max_nodes:
            lines.append(f"  ... ({len(tree.nodes) - shown} more)")
            break
        shown += 1
        indent = "  " * (tree.height - level + 1)
        if level == 0:
            bits = bitmap.unpack_leaf(node.word)
            desc = f"mask={bits.mask:#010x} gen={bits.own_gen}"
        else:
            bits = bitmap.unpack_nonleaf(node.word)
            desc = (
                f"v={int(bits.valid)} e={int(bits.existing)} "
                f"sub={bits.sub_gen} own={bits.own_gen}"
            )
        log = f" log={node.log_off:#x}" if node.log_off else ""
        lines.append(
            f"{indent}L{level}#{index} [{fmt_size(node.start)}+{fmt_size(node.size)}] {desc}{log}"
        )
    return "\n".join(lines)


def render_timeline(result, width: int = 72) -> str:
    """ASCII Gantt of a replay run (needs run(record_timeline=True)).

    One row per thread; '=' compute, '#' io, '.' lock/channel wait.
    """
    if not result.timeline or result.makespan_ns <= 0:
        return "(no timeline recorded; pass record_timeline=True to run())"
    scale = width / result.makespan_ns
    tids = sorted({tid for tid, *_ in result.timeline})
    rows = {tid: [" "] * width for tid in tids}
    glyph = {"compute": "=", "io": "#", "wait": "."}
    for tid, start, end, kind in result.timeline:
        a = min(width - 1, int(start * scale))
        b = min(width, max(a + 1, int(end * scale)))
        for col in range(a, b):
            rows[tid][col] = glyph.get(kind, "?")
    lines = [f"timeline ({result.makespan_ns / 1e3:.1f} us, '=' cpu '#' io '.' wait)"]
    for tid in tids:
        lines.append(f"t{tid:<3}|" + "".join(rows[tid]) + "|")
    return "\n".join(lines)

