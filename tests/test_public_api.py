"""The public API surface stays importable and complete."""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import repro


class TestTopLevel:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_core_symbols(self):
        from repro import (
            Ext4,
            Ext4Dax,
            Libnvmmio,
            MgspConfig,
            MgspFilesystem,
            MgspTransaction,
            Nova,
            NvmDevice,
            OpenFlags,
            OptaneTiming,
            Splitfs,
            recover,
            verify_file,
        )

        assert callable(recover) and callable(verify_file)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.nvm",
            "repro.sim",
            "repro.fsapi",
            "repro.fs",
            "repro.core",
            "repro.db",
            "repro.workloads",
            "repro.bench",
            "repro.inspect",
            "repro.errors",
            "repro.util",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    def test_every_public_module_has_docstring(self):
        root = pathlib.Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            module = path.read_text()
            assert module.lstrip().startswith(('"""', "'''")), path

    def test_registry_covers_all_filesystems(self):
        from repro.bench.registry import make_fs

        for name in ("Ext4-DAX", "Libnvmmio", "NOVA", "MGSP", "SplitFS",
                     "Ext4-wb", "Ext4-ordered", "Ext4-journal"):
            fs = make_fs(name, device_size=32 << 20)
            assert fs.name == name

    def test_workloads_are_the_papers(self):
        """FIO, Mobibench and TPC-C are what the paper evaluates; a
        workload beyond them needs a BENCH row or a checker subject."""
        import repro.workloads
        from repro.fsapi import OpenFlags

        assert sorted(repro.workloads.__all__) == [
            "FioJob", "FioResult", "MobibenchResult", "TpccResult",
            "run_fio", "run_mobibench", "run_tpcc",
        ]
        assert not hasattr(OpenFlags, "ATOMIC")

    def test_infer_events_come_from_the_flight_ring(self):
        """The collector tap is gone for good, not aliased."""
        import repro.infer
        import repro.infer.events

        assert "from_flight" in repro.infer.__all__
        for module in (repro.infer, repro.infer.events):
            assert callable(module.from_flight)
            assert not hasattr(module, "EventCollector")
            assert not hasattr(module, "attach_collector")
        for name in repro.infer.__all__:
            assert hasattr(repro.infer, name), name


def _imported_names(path: pathlib.Path) -> set:
    """Every dotted name *path* imports, at module level or lazily;
    ``from pkg import leaf`` counts as ``pkg`` and ``pkg.leaf``. The
    repo uses absolute imports only."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_orphan_modules():
    """A module nothing under src/, benchmarks/ or examples/ imports is
    reachable from tests and docs only: it serves no figure, no checker
    and no CLI, and leaves (ROADMAP item 7). No allowlist."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    src = repo / "src"
    imported_by = {
        path: _imported_names(path)
        for top in (src, repo / "benchmarks", repo / "examples")
        for path in top.rglob("*.py")
    }
    orphans = []
    for path in (src / "repro").rglob("*.py"):
        if path.stem in ("__init__", "__main__"):
            continue
        name = ".".join(path.relative_to(src).with_suffix("").parts)
        if not any(name in names for other, names in imported_by.items() if other != path):
            orphans.append(name)
    assert orphans == []
