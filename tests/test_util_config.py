"""util helpers, MgspConfig validation, error hierarchy."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import errors
from repro.core.config import MgspConfig
from repro.util import (
    align_down,
    align_up,
    checksum,
    fmt_size,
    is_power_of_two,
    parse_size,
)


class TestSizes:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4k", 4096),
            ("4K", 4096),
            ("128b", 128),
            ("1g", 1 << 30),
            ("2m", 2 << 20),
            ("16kb", 16384),
            ("512", 512),
            (" 8K ", 8192),
            ("1.5k", 1536),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(4096, "4K"), (2048, "2K"), (1 << 20, "1M"), (1 << 30, "1G"), (100, "100B"), (5000, "5000B")],
    )
    def test_fmt(self, n, expected):
        assert fmt_size(n) == expected

    @given(st.integers(1, 1 << 40))
    def test_parse_fmt_roundtrip(self, n):
        assert parse_size(fmt_size(n)) == n


class TestAlignment:
    def test_align(self):
        assert align_down(100, 64) == 64
        assert align_up(100, 64) == 128
        assert align_up(128, 64) == 128
        assert align_down(128, 64) == 128

    @given(st.integers(0, 10**9), st.sampled_from([8, 64, 4096]))
    def test_align_properties(self, value, unit):
        down, up = align_down(value, unit), align_up(value, unit)
        assert down <= value <= up
        assert down % unit == 0 and up % unit == 0
        assert up - down in (0, unit)

    def test_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_checksum_stability(self):
        assert checksum(b"abc") == checksum(b"abc")
        assert checksum(b"abc") != checksum(b"abd")


class TestMgspConfig:
    def test_defaults(self):
        config = MgspConfig()
        assert config.degree == 64
        assert config.sub_block == 128
        assert config.effective_leaf_bits == 32

    def test_fine_grained_off_sub_block(self):
        config = MgspConfig(fine_grained_logging=False)
        assert config.sub_block == config.leaf_size
        assert config.effective_leaf_bits == 1

    @pytest.mark.parametrize("bad", [0, 3, 12, -4])
    def test_bad_degree_rejected(self, bad):
        with pytest.raises(ValueError):
            MgspConfig(degree=bad)

    def test_bad_leaf_bits_rejected(self):
        with pytest.raises(ValueError):
            MgspConfig(leaf_valid_bits=64)
        with pytest.raises(ValueError):
            MgspConfig(leaf_valid_bits=3)

    def test_frozen(self):
        with pytest.raises(Exception):
            MgspConfig().degree = 4

    def test_ablation_builders(self):
        base = MgspConfig.baseline()
        assert not base.shadow_logging and not base.multi_granularity
        full = (
            base.with_shadow_logging()
            .with_multi_granularity()
            .with_fine_locking()
            .with_optimizations()
        )
        assert full.shadow_logging and full.multi_granularity
        assert full.fine_grained_locking and full.greedy_locking


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            cls = getattr(errors, name)
            if isinstance(cls, type) and issubclass(cls, Exception) and cls is not errors.ReproError:
                assert issubclass(cls, errors.ReproError), name

    def test_specific_parents(self):
        assert issubclass(errors.CrashRequested, errors.NvmError)
        assert issubclass(errors.FileNotFound, errors.FsError)
        assert issubclass(errors.TransactionError, errors.DbError)
