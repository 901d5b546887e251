"""Crash post-mortem forensics: narrate a black-box bundle.

Given a bundle from :mod:`repro.obs.blackbox`, :func:`analyze` replays
the workload twice — once to completion with an unbounded flight
recorder (the full event stream, each device event tagged with the op
and open spans that issued it) and once, unobserved, crashed at the
bundle's event index (the device state the failure was judged on) — and
correlates the two with the crash image:

- **which words were non-durable** at the crash point and got dropped
  by the bundle's policy / surgical keep-set;
- **which spans / protocol steps wrote them** — the last store covering
  each word before the crash, with its op and open-span stack;
- **which fence would have saved them** — the first fence at or after
  the crash index that makes each word durable in the passing run
  (or the finding that no flush ever covered it).

An ``analysis-finding`` bundle's failure is an ordering fact, not a bad
image: it reproduces when the trace analyzer, folded over the replayed
stream, reports the bundle's rule at the bundle's event index again.

Both runs are seed-deterministic and the flight recorder is
non-perturbing, so the replayed prefix is bit-identical to the run the
bundle describes; the narration is evidence, not reconstruction.
:func:`render` formats the same report for humans;
``python -m repro.obs postmortem BUNDLE`` wires both up.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from repro.obs import blackbox
from repro.obs.flight import attach_flight
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import attach_telemetry

#: per-word detail rows kept in the JSON report (grouping covers the rest)
MAX_WORD_ROWS = 64

#: word size of the store buffer's persist granularity
WORD = 8


def _run_with_flight(workload, config_name: str):
    def instrument(system):
        attach_telemetry(system, registry=MetricsRegistry())
        return attach_flight(system, capacity=0)

    outcome = workload.run(config_name, instrument=instrument)
    return outcome, outcome.attached


def _device_events(events: Sequence[tuple]) -> List[tuple]:
    return [ev for ev in events if ev[0] in ("store", "flush", "fence")]


def _forensics(events: Sequence[tuple], words: Sequence[int], crash_after: int):
    """One pass over the full event stream; per tracked word, find the
    last pre-crash store (the writer) and the first at-or-post-crash
    fence that makes it durable (the saver)."""
    ordered = sorted(words)
    info: Dict[int, dict] = {
        w: {
            "writer": None,
            "saved_by": None,
            "flushed_before_crash": False,
            "rewritten_before_save": False,
            "_state": "clean",
        }
        for w in ordered
    }

    def covered(offset: int, length: int) -> List[int]:
        out = []
        i = bisect_left(ordered, offset - (WORD - 1))
        end = offset + length
        while i < len(ordered) and ordered[i] < end:
            out.append(ordered[i])
            i += 1
        return out

    pending: set = set()
    for ev in events:
        kind = ev[0]
        if kind == "store":
            _, idx, _t, offset, length, store_kind, op, spans = ev
            for w in covered(offset, length):
                rec = info[w]
                if idx < crash_after:
                    rec["writer"] = {
                        "event": idx,
                        "kind": store_kind,
                        "op": op,
                        "spans": list(spans),
                    }
                elif rec["saved_by"] is None:
                    rec["rewritten_before_save"] = True
                if store_kind == "nt":
                    rec["_state"] = "pending"
                    pending.add(w)
                else:
                    rec["_state"] = "dirty"
                    pending.discard(w)
        elif kind == "flush":
            _, idx, _t, offset, length, _nlines, op, spans = ev
            for w in covered(offset, length):
                rec = info[w]
                if rec["_state"] == "dirty":
                    rec["_state"] = "pending"
                    pending.add(w)
                    if idx < crash_after:
                        rec["flushed_before_crash"] = True
        elif kind == "fence":
            _, idx, _t, op, spans = ev
            if not pending:
                continue
            for w in list(pending):
                rec = info[w]
                rec["_state"] = "durable"
                if idx >= crash_after and rec["saved_by"] is None:
                    rec["saved_by"] = {"event": idx, "op": op, "spans": list(spans)}
            pending.clear()
    for rec in info.values():
        del rec["_state"]
    return info


def analyze(bundle: Dict[str, object]) -> Dict[str, object]:
    """Correlate *bundle* with a deterministic replay; returns the
    machine-readable post-mortem report (plain JSON-safe data)."""
    from repro.crashsweep.workloads import get_workload

    workload_name = str(bundle["workload"])
    config_name = str(bundle["config"])
    crash_after = int(bundle["crash_after"])
    seed = int(bundle.get("seed", 0))
    policy = bundle.get("policy")
    persist_words = bundle.get("persist_words")
    workload = get_workload(workload_name)

    # the full passing run: the event stream past the crash point
    full, full_flight = _run_with_flight(workload, config_name)
    events = _device_events(full_flight.events_list())
    regions = workload.region_map(full.fs)

    # the crashed run: the device state the failure was judged on
    outcome, kept, dropped, _image, violations = blackbox.crash_verdict(
        workload, config_name, crash_after, policy, seed, persist_words=persist_words
    )
    if bundle.get("kind") == "analysis-finding":
        # an ordering fact, not a bad image: it recurs iff the analyzer,
        # folded over the replayed stream, reports it at the same event
        from repro.analysis.analyzer import TraceAnalyzer

        analyzer = TraceAnalyzer(regions, async_writeback=full.fs.config.async_writeback)
        for entry in full_flight.events_list():
            analyzer(entry)
        violations += [
            f"{finding.rule}: {finding.message}"
            for finding in analyzer.findings
            if finding.rule == bundle.get("rule") and finding.event_index == crash_after
        ]

    info = _forensics(events, dropped, crash_after)

    # group by (region, writer op, innermost span) — the protocol step
    groups: Dict[tuple, dict] = {}
    rows = []
    for w in dropped:
        rec = info[w]
        region = regions.classify(w)
        writer = rec["writer"]
        op = writer["op"] if writer else None
        step = writer["spans"][-1] if writer and writer["spans"] else None
        key = (region, op or "", step or "")
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "region": region,
                "op": op,
                "step": step,
                "words": 0,
                "first_word": w,
                "last_word": w,
                "writer_events": [],
                "saved_by": None,
                "flushed_before_crash": False,
                "never_fenced": 0,
            }
        group["words"] += 1
        group["last_word"] = max(group["last_word"], w)
        if writer:
            group["writer_events"].append(writer["event"])
        if rec["flushed_before_crash"]:
            group["flushed_before_crash"] = True
        if rec["saved_by"] is None:
            group["never_fenced"] += 1
        elif group["saved_by"] is None or rec["saved_by"]["event"] < group["saved_by"]["event"]:
            group["saved_by"] = rec["saved_by"]
        if len(rows) < MAX_WORD_ROWS:
            rows.append(
                {
                    "offset": w,
                    "region": region,
                    "writer": writer,
                    "saved_by": rec["saved_by"],
                    "flushed_before_crash": rec["flushed_before_crash"],
                    "rewritten_before_save": rec["rewritten_before_save"],
                }
            )

    group_rows = []
    for key in sorted(groups):
        group = groups[key]
        evs = group.pop("writer_events")
        group["writer_events"] = [min(evs), max(evs)] if evs else None
        group_rows.append(group)

    return {
        "bundle_kind": bundle.get("kind"),
        "workload": workload_name,
        "config": config_name,
        "crash_after": crash_after,
        "seed": seed,
        "policy": policy,
        "surgical": persist_words is not None,
        "crashed": outcome.crashed,
        "reproduced": bool(violations),
        "violations": violations,
        "bundle_violations": list(bundle.get("violations") or []),
        "candidate_words": len(kept) + len(dropped),
        "kept_words": len(kept),
        "dropped_words": len(dropped),
        "words": rows,
        "words_truncated": len(dropped) > MAX_WORD_ROWS,
        "steps": group_rows,
        "total_events": len(events),
    }


def _fmt_step(group: dict) -> str:
    where = f"{group['region']}"
    span = f", step {group['step']!r}" if group["step"] else ""
    op = f"op {group['op']!r}" if group["op"] else "outside any op"
    evs = group["writer_events"]
    wrote = (
        f"written at event {evs[0]}"
        if evs and evs[0] == evs[1]
        else f"written at events {evs[0]}..{evs[1]}"
        if evs
        else "written before the census baseline"
    )
    saved = group["saved_by"]
    if saved is not None:
        fate = (
            f"the fence at event {saved['event']} (op {saved['op']!r}) would "
            f"have made them durable — the crash preceded it"
        )
    elif group["never_fenced"] == group["words"]:
        fate = (
            "no later fence ever covers them (missing flush+fence on this path)"
        )
    else:
        fate = "partially fenced later; some words are never covered"
    cached = (
        "flushed but unfenced"
        if group["flushed_before_crash"]
        else "still in the CPU cache"
    )
    return (
        f"{group['words']} word(s) in {where}{span}: {wrote} by {op}, "
        f"{cached} at the crash; {fate}"
    )


def render(report: Dict[str, object]) -> str:
    """Human-readable narration of one post-mortem report."""
    lines: List[str] = []
    how = (
        "surgical keep-set"
        if report["surgical"]
        else f"policy {report['policy'] or 'drop_all'}"
    )
    lines.append(
        f"postmortem: {report['workload']}/{report['config']} "
        f"crash@{report['crash_after']} ({how}, seed {report['seed']})"
    )
    verdict = "REPRODUCED" if report["reproduced"] else "did NOT reproduce"
    lines.append(
        f"verdict: failure {verdict} — {len(report['violations'])} violation(s)"
    )
    for violation in report["violations"]:
        lines.append(f"  - {violation}")
    lines.append(
        f"crash state: {report['candidate_words']} unfenced word(s); "
        f"{report['kept_words']} persisted, {report['dropped_words']} dropped"
    )
    steps = report["steps"]
    if steps:
        lines.append("non-durable words, by writing protocol step:")
        for group in steps:
            lines.append("  - " + _fmt_step(group))
    else:
        lines.append("no dropped words — the failure is not a lost-write "
                     "(check the bundle's violations for the real cause)")
    return "\n".join(lines) + "\n"
