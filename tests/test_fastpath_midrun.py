"""Bulk device paths (ISSUE 8, 12): observers attached mid-run.

The ``_v`` entry points apply a batch through the buffer's bulk calls
whatever is attached. The contract is that they leave *identical device
state* behind, so an observer attached between batched ops — mid-run —
sees an event/trace stream that could not tell the batches from the
per-element loops of ``device_oracle``.

Two suites:

- mid-run attach parity: run a randomized batched op sequence, attach a
  recording tap (or cost recorder) at an arbitrary point, and assert the
  post-attach event stream, DeviceStats, unfenced-word candidates, and
  seeded crash image all match a device that ran the per-element oracle
  throughout.
- error-path parity (the bug ISSUE 8 fixed): a ``store_word_v`` batch
  failing mid-way used to leave the applied prefix *uncounted* in
  ``DeviceStats`` on the fused path — the per-element loop counts it —
  so anything reading stats deltas afterwards (obs attribution, write
  amplification, bench exports) diverged.
"""

from __future__ import annotations

import random

import pytest

from device_oracle import PER_ELEMENT
from repro.errors import OutOfRangeError, TornWriteError
from repro.nvm.device import NvmDevice

SIZE = 1 << 16


class RecordingTap:
    def __init__(self):
        self.events = []

    def on_store(self, offset, length, kind):
        self.events.append(("store", offset, length, kind))

    def on_flush(self, offset, length, nlines):
        self.events.append(("flush", offset, length, nlines))

    def on_fence(self):
        self.events.append(("fence",))

    def on_drain(self):
        self.events.append(("drain",))


class RecordingTracer:
    def __init__(self):
        self.segments = []

    def io_cached(self, n):
        self.segments.append(("cached", n))

    def io_write(self, n):
        self.segments.append(("write", n))

    def io_read(self, n):
        self.segments.append(("read", n))

    def io_flush(self, n):
        self.segments.append(("flush", n))

    def io_fence(self):
        self.segments.append(("fence",))


def _gen_ops(rng, n):
    ops = []
    for _ in range(n):
        kind = rng.choice(
            ["store_v", "nt_store_v", "flush_v", "store_word_v", "fence", "flush"]
        )
        if kind in ("store_v", "nt_store_v"):
            writes = [
                (
                    rng.randrange(0, SIZE - 256),
                    bytes([rng.randrange(256)]) * rng.choice([0, 1, 8, 13, 64, 200]),
                )
                for _ in range(rng.randint(1, 5))
            ]
            ops.append((kind, writes))
        elif kind == "flush_v":
            ops.append(
                (
                    kind,
                    [
                        (rng.randrange(0, SIZE - 256), rng.choice([0, 8, 64, 256]))
                        for _ in range(rng.randint(1, 4))
                    ],
                )
            )
        elif kind == "store_word_v":
            ops.append(
                (
                    kind,
                    [
                        (rng.randrange(0, SIZE // 8 - 1) * 8, rng.randrange(1 << 32))
                        for _ in range(rng.randint(1, 4))
                    ],
                )
            )
        elif kind == "fence":
            ops.append((kind, None))
        else:
            ops.append((kind, (rng.randrange(0, SIZE - 256), rng.choice([8, 64, 256]))))
    return ops


def _apply(device, op, batched=True):
    kind, arg = op
    if kind == "fence":
        device.fence()
    elif kind == "flush":
        device.flush(*arg)
    elif batched:
        getattr(device, kind)(arg)
    else:
        PER_ELEMENT[kind](device, arg)


@pytest.mark.parametrize("seed", range(30))
def test_midrun_tap_attach_event_parity(seed):
    """A tap attached between batched ops sees the same events, stats,
    and crash-image candidates as on a device driven by the per-element
    oracle throughout."""
    rng = random.Random(seed)
    ops = _gen_ops(rng, 40)
    attach_at = rng.randrange(0, len(ops))

    bulk = NvmDevice(SIZE)
    slow = NvmDevice(SIZE)
    taps = (RecordingTap(), RecordingTap())

    for i, op in enumerate(ops):
        if i == attach_at:
            bulk.attach(taps[0])
            slow.attach(taps[1])
        _apply(bulk, op)
        _apply(slow, op, batched=False)

    assert taps[0].events == taps[1].events
    assert vars(bulk.stats) == vars(slow.stats)
    assert bulk.unfenced_words() == slow.unfenced_words()
    assert bulk.crash_image(rng=random.Random(7)) == slow.crash_image(rng=random.Random(7))


@pytest.mark.parametrize("seed", range(10))
def test_midrun_tracer_attach_segment_parity(seed):
    """Same as above for a cost recorder attached mid-run (with a tap
    on from the start): identical post-attach cost segments."""
    rng = random.Random(1000 + seed)
    ops = _gen_ops(rng, 30)
    attach_at = rng.randrange(0, len(ops))

    bulk = NvmDevice(SIZE)
    slow = NvmDevice(SIZE)
    taps = (bulk.attach(RecordingTap()), slow.attach(RecordingTap()))
    tracers = (RecordingTracer(), RecordingTracer())

    for i, op in enumerate(ops):
        if i == attach_at:
            bulk.attach(tracers[0])
            slow.attach(tracers[1])
        _apply(bulk, op)
        _apply(slow, op, batched=False)

    assert tracers[0].segments == tracers[1].segments
    assert taps[0].events == taps[1].events
    assert vars(bulk.stats) == vars(slow.stats)


@pytest.mark.parametrize(
    "words, exc",
    [
        ([(0, 1), (64, 2), (130, 3), (192, 4)], TornWriteError),  # unaligned mid-batch
        ([(0, 1), (SIZE - 8, 2), (SIZE, 3)], OutOfRangeError),  # out of range at end
        ([(3, 1)], TornWriteError),  # first word already bad
    ],
)
def test_store_word_v_error_path_parity(words, exc):
    """Regression (ISSUE 8): a store_word_v batch failing mid-way must
    leave the DeviceStats and buffer state of the per-element oracle.
    The fused path used to apply the prefix to the medium but commit
    *no* stats, so a tap/tracer attached after the failure read
    diverging counters."""
    bulk = NvmDevice(SIZE)
    slow = NvmDevice(SIZE)

    with pytest.raises(exc):
        bulk.store_word_v(words)
    with pytest.raises(exc):
        PER_ELEMENT["store_word_v"](slow, words)

    assert vars(bulk.stats) == vars(slow.stats)
    assert bulk.buffer.working == slow.buffer.working
    assert bulk.buffer._pending_log == slow.buffer._pending_log
    assert bulk.unfenced_words() == slow.unfenced_words()

    # a tap attached after the failed batch sees identical follow-on events
    taps = (bulk.attach(RecordingTap()), slow.attach(RecordingTap()))
    bulk.store_word_v([(256, 9)])
    PER_ELEMENT["store_word_v"](slow, [(256, 9)])
    for device in (bulk, slow):
        device.fence()
    assert taps[0].events == taps[1].events
    assert vars(bulk.stats) == vars(slow.stats)


@pytest.mark.parametrize("vec", ["store_v", "nt_store_v"])
def test_store_v_error_path_parity(vec):
    """The store_v/nt_store_v validate-before-mutate fallback applies the
    exact per-element prefix (state, stats, exception) on a bad element."""
    writes = [(0, b"x" * 16), (4096, b"y" * 16), (SIZE - 4, b"z" * 16), (8192, b"w" * 8)]
    bulk = NvmDevice(SIZE)
    slow = NvmDevice(SIZE)
    with pytest.raises(OutOfRangeError):
        getattr(bulk, vec)(writes)
    with pytest.raises(OutOfRangeError):
        PER_ELEMENT[vec](slow, writes)
    assert vars(bulk.stats) == vars(slow.stats)
    assert bulk.buffer.working == slow.buffer.working
    assert bulk.unfenced_words() == slow.unfenced_words()
