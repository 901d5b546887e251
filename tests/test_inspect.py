"""Introspection helpers."""

from __future__ import annotations

from repro.core import MgspConfig, MgspFilesystem
from repro.inspect import dump_tree


def make():
    fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=16))
    handle = fs.create("probe", capacity=1 << 20)
    return fs, handle


class TestInspect:
    def test_render_breakdown(self):
        from repro.inspect import render_breakdown

        rows = [("data", 750.0), ("log", 250.0), ("idle", 0.0)]
        text = render_breakdown(rows, 1000.0, unit="ns")
        lines = text.splitlines()
        assert lines[0].split() == ["layer", "ns", "%"]
        assert "75.0" in text and "25.0" in text
        assert "idle" in text  # zero rows are kept
        assert lines[-1].startswith("total")
        assert "1,000" in lines[-1]
        # Empty total renders without dividing by zero.
        assert "0.0" in render_breakdown([("x", 0.0)], 0.0)

    def test_dump_tree_shows_nodes(self):
        fs, handle = make()
        handle.write(0, b"x" * 4096)
        handle.write(100_000, b"y" * 200)
        text = dump_tree(handle)
        assert "height=" in text
        assert "mask=" in text  # a leaf appears
        assert "log=" in text

    def test_dump_tree_truncates(self):
        fs, handle = make()
        for i in range(30):
            handle.write(i * 4096, b"z" * 4096)
        text = dump_tree(handle, max_nodes=5)
        assert "more)" in text
