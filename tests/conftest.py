"""Shared fixtures."""

from __future__ import annotations

import pytest

from repro.analysis import attach_analyzer
from repro.bench.registry import EXT4_MODES, FS_NAMES, make_fs
from repro.core import MgspConfig, MgspFilesystem
from repro.nvm.device import NvmDevice

SMALL_DEVICE = 32 << 20


@pytest.fixture
def device():
    return NvmDevice(SMALL_DEVICE)


@pytest.fixture
def mgsp():
    """An MGSP mount with the persistence-order analyzer armed in
    strict mode: any error-severity protocol violation observed while
    the test drove the filesystem fails the test at teardown."""
    fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=16))
    analyzer = attach_analyzer(fs, perf=False)
    yield fs
    errors = analyzer.errors
    assert not errors, "persistence-protocol violations:\n" + "\n".join(
        f.format() for f in errors
    )


ALL_FS_NAMES = FS_NAMES + EXT4_MODES


def make_all_filesystems(device_size=64 << 20):
    """Fresh instances of every file system (for contract tests)."""
    return [make_fs(name, device_size=device_size) for name in ALL_FS_NAMES]
