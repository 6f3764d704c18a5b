"""Byte-size units, parsing and human-readable formatting.

The paper mixes decimal marketing units (``250 GB SATA disk``) with binary
chunk sizes (``8KB chunk size`` meaning 8192 bytes, as in every dedup
system).  To stay unambiguous this module exposes *both* families and the
rest of the code base always uses the binary constants for chunk/container
sizes and the decimal constants for dataset/pricing arithmetic (Amazon
prices per decimal GB).
"""

from __future__ import annotations

import re

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "parse_size",
    "format_bytes",
    "format_seconds",
]

#: Decimal units (powers of 1000) — used for dataset sizes and cloud pricing.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

#: Binary units (powers of 1024) — used for chunk and container sizes.
KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30
TIB = 1 << 40

_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": KIB,
    "kb": KIB,
    "kib": KIB,
    "m": MIB,
    "mb": MIB,
    "mib": MIB,
    "g": GIB,
    "gb": GIB,
    "gib": GIB,
    "t": TIB,
    "tb": TIB,
    "tib": TIB,
}

_SIZE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_size(text: str | int | float) -> int:
    """Parse a human size string such as ``"8KB"`` or ``"1.5 MiB"`` to bytes.

    Integers/floats pass through (rounded).  Suffixes are interpreted as
    binary units (``KB`` == ``KiB`` == 1024) because that is the convention
    of the dedup literature this code reproduces.

    >>> parse_size("8KB")
    8192
    >>> parse_size(4096)
    4096
    """
    if isinstance(text, (int, float)):
        return int(round(text))
    m = _SIZE_RE.match(text)
    if not m:
        raise ValueError(f"unparseable size: {text!r}")
    value, suffix = m.group(1), m.group(2).lower()
    if suffix not in _SUFFIXES:
        raise ValueError(f"unknown size suffix {suffix!r} in {text!r}")
    return int(round(float(value) * _SUFFIXES[suffix]))


def format_bytes(n: float, *, decimal: bool = False) -> str:
    """Render a byte count human-readably (``format_bytes(8192) == '8.0KiB'``).

    With ``decimal=True`` powers of 1000 and SI suffixes are used instead,
    matching how the paper quotes dataset sizes.
    """
    step = 1000.0 if decimal else 1024.0
    suffixes = ("B", "KB", "MB", "GB", "TB", "PB") if decimal else (
        "B", "KiB", "MiB", "GiB", "TiB", "PiB")
    value = float(n)
    for suffix in suffixes:
        if abs(value) < step or suffix == suffixes[-1]:
            if suffix == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{suffix}"
        value /= step
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Render a duration compactly: ``90 -> '1m30s'``, ``7200 -> '2h0m'``."""
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds < 1:
        return f"{seconds * 1000:.1f}ms"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes}m"
