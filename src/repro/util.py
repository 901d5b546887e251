"""Small shared helpers: alignment math, checksums, size parsing."""

from __future__ import annotations

import zlib

CACHE_LINE = 64
ATOMIC_UNIT = 8

_SIZE_SUFFIXES = {
    "b": 1,
    "k": 1024,
    "kb": 1024,
    "m": 1024**2,
    "mb": 1024**2,
    "g": 1024**3,
    "gb": 1024**3,
}


def parse_size(text: str) -> int:
    """Parse a human size string like ``"4k"``, ``"1g"``, ``"128b"``.

    Bare integers are bytes. Matches the FIO-style sizes used by the
    paper's run scripts.
    """
    s = text.strip().lower()
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if s.endswith(suffix):
            return int(float(s[: -len(suffix)]) * _SIZE_SUFFIXES[suffix])
    return int(s)


def fmt_size(n: int) -> str:
    """Render a byte count compactly (``2048 -> "2K"``)."""
    for unit, width in (("G", 1024**3), ("M", 1024**2), ("K", 1024)):
        if n % width == 0 and n >= width:
            return f"{n // width}{unit}"
    return f"{n}B"


def align_down(value: int, alignment: int) -> int:
    return value - (value % alignment)


def align_up(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def checksum(data: bytes) -> int:
    """CRC32 of *data*, used by the metadata log to validate entries."""
    return zlib.crc32(data) & 0xFFFFFFFF
