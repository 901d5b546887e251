"""Telemetry must never change simulation results.

Disabled mode (the NullSink default) is the baseline by construction;
the real claim is that *attaching* telemetry is purely observational:
same device traffic, same crash images, same recovered state. And with
telemetry on, two identical runs must export identical snapshots (the
virtual clock is the only time source).
"""

from __future__ import annotations

import random

from repro.crashsweep.workloads import get_workload
from repro.obs.exporters import to_json
from repro.obs.harness import run_workload
from repro.obs.spans import NULL_SINK, attach_telemetry

WORKLOAD = "fio-randwrite"


def _run(instrument=None, config="sync"):
    return get_workload(WORKLOAD).run(config, instrument=instrument)


def test_default_obs_is_null_sink():
    outcome = _run()
    assert outcome.fs.obs is NULL_SINK
    assert outcome.fs.mgl.obs is NULL_SINK
    assert outcome.fs.metalog.obs is NULL_SINK


def test_telemetry_does_not_perturb_device_traffic():
    plain = _run()
    observed = _run(instrument=lambda fs: attach_telemetry(fs))
    assert vars(plain.fs.device.stats) == vars(observed.fs.device.stats)
    # The cost traces price identically too: total virtual work charged
    # on the foreground recorder matches to the last nanosecond.
    assert plain.fs.recorder.clock_ns == observed.fs.recorder.clock_ns


def test_telemetry_does_not_perturb_crash_images():
    plain = _run(config="async")
    observed = _run(instrument=lambda fs: attach_telemetry(fs), config="async")
    # Same eviction decisions (seeded rng) over the same pending state
    # -> byte-identical adversarial crash images.
    img_a = plain.fs.device.crash_image(rng=random.Random(1234))
    img_b = observed.fs.device.crash_image(rng=random.Random(1234))
    assert bytes(img_a) == bytes(img_b)
    # And the fully-persisted images match as well.
    plain.fs.device.drain()
    observed.fs.device.drain()
    assert bytes(plain.fs.device.buffer.durable) == bytes(observed.fs.device.buffer.durable)


def test_telemetry_on_runs_are_reproducible():
    a = run_workload("fio", "mgsp-sync")
    b = run_workload("fio", "mgsp-sync")
    assert to_json(a.telemetry) == to_json(b.telemetry)


def test_telemetry_on_async_runs_are_reproducible():
    a = run_workload("txn", "mgsp-async")
    b = run_workload("txn", "mgsp-async")
    assert to_json(a.telemetry) == to_json(b.telemetry)
