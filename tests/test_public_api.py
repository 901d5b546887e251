"""The public API surface stays importable and complete."""

from __future__ import annotations

import importlib

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
            "repro.posix",
            "repro.inspect",
            "repro.shell",
            "repro.errors",
            "repro.util",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    def test_every_public_module_has_docstring(self):
        import pathlib

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
