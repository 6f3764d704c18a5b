"""Shared low-level utilities: size units, clocks, atomic IO, logging."""

from repro.util.units import (
    KB,
    MB,
    GB,
    TB,
    KIB,
    MIB,
    GIB,
    format_bytes,
    format_seconds,
    parse_size,
)
from repro.util.timer import Stopwatch, WallClock, ClockProtocol

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "format_bytes",
    "format_seconds",
    "parse_size",
    "Stopwatch",
    "WallClock",
    "ClockProtocol",
]
