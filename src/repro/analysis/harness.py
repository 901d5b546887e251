"""Attach the analyzer to live systems and replay workloads/programs.

Two entry paths:

- :func:`run_workload` replays a deterministic ``repro.crashsweep``
  workload with the analyzer following a flight recorder and returns an
  :class:`AnalysisReport`
  whose event indices line up with the sweep's crash-point enumeration
  (verified against :func:`repro.nvm.crash.count_events` parity).
- :func:`run_program` executes one violation-corpus program (a ``.py``
  file with a ``run(ctx)`` function and an ``EXPECT`` rule list) against
  a bare device — the self-test substrate under ``tests/analysis_corpus``.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from repro.analysis.analyzer import Finding, RegionMap, TraceAnalyzer
from repro.crashsweep.workloads import RawSystem, get_workload, subjects
from repro.nvm.crash import count_events
from repro.nvm.device import NvmDevice
from repro.obs.flight import attach_flight


def cli_names(workload: str, config: str) -> Tuple[str, str]:
    """(registry name, config name) for the analysis and telemetry CLIs:
    *workload* is an alias of the ``mgsp`` subject or any registry name,
    *config* a sweep config, bare or ``mgsp-`` prefixed."""
    _, aliases = subjects()["mgsp"]
    return aliases.get(workload, workload), config.removeprefix("mgsp-")


def attach_analyzer(
    fs, perf: bool = True, max_events: Optional[int] = None
) -> TraceAnalyzer:
    """Instrument a mounted filesystem: attach a flight recorder and
    have the analyzer follow it. Returns the analyzer (its ``findings``
    accumulate for the life of the mount)."""
    return attach_flight(fs).follow(TraceAnalyzer(
        regions=RegionMap.from_layout(fs.volume.layout),
        device=fs.device,
        async_writeback=bool(getattr(fs.config, "async_writeback", False)),
        perf=perf,
        max_events=max_events,
    ))


@dataclass
class AnalysisReport:
    """One analyzed workload replay."""

    workload: str
    config_name: str
    findings: List[Finding]
    events: int  # persistence events analyzed (crash-point count)
    parity_ok: bool  # stamped event count == DeviceStats-derived count
    saturated: bool = False  # analysis stopped at --budget
    seed: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def reproducer(self, finding: Finding) -> str:
        return (
            f"python -m repro.crashsweep --workload {self.workload}"
            f" --configs {self.config_name} --policies keep_all"
            f" --at {finding.event_index} --seed {self.seed}"
        )

    def format(self, detail_limit: int = 10) -> str:
        lines = [
            f"analysis: workload={self.workload} config={self.config_name} "
            f"events={self.events} findings={len(self.findings)} "
            f"(errors={len(self.errors)})"
        ]
        if not self.parity_ok:
            lines.append(
                "  WARNING: event-count parity mismatch — reported indices may "
                "not line up with crashsweep --at indices"
            )
        if self.saturated:
            lines.append("  NOTE: analysis budget hit; later events were not checked")
        by_rule: Dict[str, int] = {}
        for f in self.findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        for rule in sorted(by_rule):
            lines.append(f"  {rule}: {by_rule[rule]}")
        shown = self.findings[:detail_limit]
        for f in shown:
            lines.append("  " + f.format(self.reproducer(f)))
        if len(self.findings) > detail_limit:
            lines.append(f"  ... and {len(self.findings) - detail_limit} more")
        if not self.findings:
            lines.append("  clean: no findings")
        return "\n".join(lines)


def run_workload(
    workload: str,
    config: str,
    perf: bool = True,
    max_events: Optional[int] = None,
    seed: int = 0,
) -> AnalysisReport:
    """Replay one crash-sweep workload to completion under the analyzer."""
    wname, cname = cli_names(workload, config)
    wl = get_workload(wname)
    outcome = wl.run(
        cname, instrument=lambda fs: attach_analyzer(fs, perf=perf, max_events=max_events)
    )
    analyzer: TraceAnalyzer = outcome.attached
    derived = count_events(outcome.fs.device, since=outcome.stats_base)
    return AnalysisReport(
        workload=wname,
        config_name=cname,
        findings=list(analyzer.findings),
        events=analyzer.event_index,
        parity_ok=analyzer.event_index == derived,
        saturated=analyzer.saturated,
        seed=seed,
    )


# -- corpus programs -------------------------------------------------------

PROGRAM_DEVICE_SIZE = 4 << 20


@dataclass
class ProgramCtx:
    """What a corpus program's ``run(ctx)`` gets to drive."""

    device: NvmDevice
    regions: RegionMap
    analyzer: TraceAnalyzer
    #: ``with ctx.op(name):`` brackets an operation (drives the boundary rule)
    op: Callable[[str], ContextManager]
    #: handy region anchors (line-aligned starts)
    data_off: int = field(init=False)
    metalog_off: int = field(init=False)
    node_tables_off: int = field(init=False)

    def __post_init__(self) -> None:
        layout = self.regions.layout
        self.data_off = layout.data_area.start
        self.metalog_off = layout.metalog.start
        self.node_tables_off = layout.node_tables.start


def program_context(device_size: int = PROGRAM_DEVICE_SIZE) -> ProgramCtx:
    system = RawSystem(device_size)
    regions = RegionMap.for_device(device_size)
    analyzer = attach_flight(system).follow(TraceAnalyzer(regions, device=system.device))
    return ProgramCtx(device=system.device, regions=regions, analyzer=analyzer, op=system.op)


def load_program(path: str):
    spec = importlib.util.spec_from_file_location("repro_analysis_program", path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot load program {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "run"):
        raise ValueError(f"program {path!r} defines no run(ctx)")
    return module


def run_program(path: str) -> Tuple[List[Finding], List[str]]:
    """Execute one corpus program; returns (findings, EXPECT rules)."""
    module = load_program(path)
    ctx = program_context()
    module.run(ctx)
    return list(ctx.analyzer.findings), list(getattr(module, "EXPECT", []))
