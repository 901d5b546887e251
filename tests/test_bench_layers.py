"""The frozen tracer's names still exist — checked in tier-1.

``benchmarks/e2e/trace.py`` lists the entry points of every layer in its
``LAYERS`` table, each on the class whose own ``vars()`` must hold it,
and ``run.py --trace 1`` raises ``TraceError`` when one was deleted,
renamed or hoisted into a base class. Only CI's perf-smoke job ran that;
this runs the same install under ``pytest -x -q``. It reads
``benchmarks/e2e`` and changes nothing there.
"""

from __future__ import annotations

from pathlib import Path

from repro.nvm.cache import StoreBuffer


def test_every_layers_name_is_still_where_the_tracer_patches_it(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from e2e.trace import LAYERS, Tracer

    tracer = Tracer()
    try:
        tracer.install()  # TraceError lists every missing name
        # names[0] is the driver's own span; the rest are LAYERS, one each
        assert len(tracer.names) - 1 == sum(len(attrs) for *_, attrs in LAYERS)
        assert hasattr(vars(StoreBuffer)["fence"], "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(vars(StoreBuffer)["fence"], "__wrapped__")
