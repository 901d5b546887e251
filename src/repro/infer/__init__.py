"""Inferred-invariant crash testing (WITCHER-style).

Pipeline: collect persistence-event traces from passing runs
(:mod:`repro.infer.events`, folded from the flight recorder's ring) → mine
candidate invariants with support counts (:mod:`repro.infer.miner`) →
falsify survivors at exactly the crash points that would violate them
(:mod:`repro.infer.falsify`) → emit a deterministic JSON report
(:mod:`repro.infer.report`). ``python -m repro.infer`` drives it.

Unlike the hand-written rule set in :mod:`repro.analysis`, inference
needs no per-backend rules: it learns each subject's ordering discipline
from its own traces, so it covers NOVA and Libnvmmio as easily as MGSP.
"""

from repro.infer.events import PersistEvent, Trace, from_flight
from repro.infer.falsify import RETIREMENTS, Verdict, falsify
from repro.infer.miner import Candidate, mine
from repro.infer.report import build_report, render
from repro.infer.subjects import collect_traces

__all__ = [
    "Candidate",
    "PersistEvent",
    "RETIREMENTS",
    "Trace",
    "Verdict",
    "build_report",
    "collect_traces",
    "falsify",
    "from_flight",
    "mine",
    "render",
]
