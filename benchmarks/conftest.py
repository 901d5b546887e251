"""Benchmark-suite plumbing.

Every module checks one table or figure from the paper's evaluation
(see DESIGN.md's per-experiment index); the table itself is built by
``repro.bench.figures.EXPERIMENTS`` — the same function ``python -m
repro.bench`` prints — never by a copy here. The pytest-benchmark fixture
times the *simulation run* (wall clock); the scientifically meaningful
numbers are the simulated metrics, which are printed as a table (run
with ``-s``) and attached to ``benchmark.extra_info``.

Shape assertions check orderings and coarse ratio bands against the
paper, with tolerance for the simulated substrate (EXPERIMENTS.md
documents the expected deviations).
"""

from __future__ import annotations

import pytest


@pytest.fixture
def bench_table(benchmark, capsys):
    """Run the experiment once; print its rendered table."""

    def _run(fn):
        result = benchmark.pedantic(fn, rounds=1, iterations=1)
        with capsys.disabled():
            print()
            print(result if isinstance(result, str) else result)
        return result

    return _run
