"""Shared experiment plumbing: run FIO jobs, render result tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.registry import device_size_for, make_fs
from repro.core import MgspConfig
from repro.workloads.fio import FioJob, FioResult, run_fio

#: when set (via collect_breakdowns), run_one attaches telemetry to
#: every filesystem it mounts and appends one breakdown record per run.
_breakdown_sink: Optional[List[dict]] = None

#: when set (via collect_perfetto), run_one also attaches an unbounded
#: flight recorder and appends one trace-event document per run.
_perfetto_sink: Optional[List[dict]] = None


def collect_breakdowns(sink: Optional[List[dict]]) -> None:
    """Route per-run telemetry breakdowns into *sink* (None to stop).

    Each record is ``{"fs", "job", "breakdown"}`` where ``breakdown``
    is the :func:`repro.obs.exporters.json_snapshot` of that run — the
    sidecar payload ``python -m repro.bench --breakdown`` writes.
    """
    global _breakdown_sink
    _breakdown_sink = sink


def collect_perfetto(sink: Optional[List[dict]]) -> None:
    """Route per-run span timelines into *sink* (None to stop).

    Each record is a Chrome trace-event document from
    :func:`repro.obs.perfetto.from_flight`, one Perfetto process per
    run — ``python -m repro.bench --perfetto`` merges and writes them.
    """
    global _perfetto_sink
    _perfetto_sink = sink


@dataclass
class Table:
    """A printable result grid: rows x columns -> formatted cell."""

    title: str
    columns: List[str] = field(default_factory=list)
    rows: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def set(self, row: str, col: str, value) -> None:
        if col not in self.columns:
            self.columns.append(col)
        self.rows.setdefault(row, {})[col] = value if isinstance(value, str) else f"{value:.1f}"

    def render(self) -> str:
        name_w = max([len(r) for r in self.rows] + [8])
        col_w = {c: max(len(c), 9) for c in self.columns}
        out = [self.title, ""]
        header = " " * name_w + "  " + "  ".join(c.rjust(col_w[c]) for c in self.columns)
        out.append(header)
        out.append("-" * len(header))
        for row, cells in self.rows.items():
            line = row.ljust(name_w) + "  " + "  ".join(
                cells.get(c, "-").rjust(col_w[c]) for c in self.columns
            )
            out.append(line)
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()

    def value(self, row: str, col: str) -> float:
        return float(self.rows[row][col])


def run_one(
    fs_name: str,
    job: FioJob,
    mgsp_config: Optional[MgspConfig] = None,
    device_size: Optional[int] = None,
) -> FioResult:
    fs = make_fs(
        fs_name,
        device_size=device_size or device_size_for(job.fsize),
        mgsp_config=mgsp_config,
    )
    sink = _breakdown_sink
    traces = _perfetto_sink
    if sink is None and traces is None:
        return run_fio(fs, job)
    from repro.obs.exporters import json_snapshot
    from repro.obs.spans import attach_telemetry

    telemetry = attach_telemetry(fs)
    flight = None
    if traces is not None:
        from repro.obs.flight import attach_flight

        flight = attach_flight(fs, capacity=0)
    result = run_fio(fs, job)
    if sink is not None:
        sink.append(
            {
                "fs": fs_name,
                "job": {
                    "op": job.op,
                    "bs": job.bs,
                    "fsync": job.fsync,
                    "threads": job.threads,
                    "nops": job.nops,
                },
                "breakdown": json_snapshot(telemetry),
            }
        )
    if traces is not None:
        from repro.obs import perfetto

        traces.append(
            perfetto.from_flight(
                flight,
                workload=fs_name,
                config=f"{job.op}-bs{job.bs}-t{job.threads}",
                pid=len(traces) + 1,
            )
        )
    return result

