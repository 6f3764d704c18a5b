"""Clock abstractions shared by the real engine and the simulator.

The backup engines charge elapsed time to a *clock*; in production-style
runs that is :class:`WallClock`, while the evaluation harness substitutes
:class:`repro.simulate.clock.VirtualClock` so that 351 GB of trace can be
"timed" deterministically in milliseconds of real time.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["ClockProtocol", "WallClock", "Stopwatch"]


@runtime_checkable
class ClockProtocol(Protocol):
    """Minimal clock interface: a monotonically non-decreasing ``now()``."""

    def now(self) -> float:
        """Return the current time in seconds."""
        ...


class WallClock:
    """Real monotonic wall clock (:func:`time.perf_counter`)."""

    def now(self) -> float:
        """Return monotonic wall time in seconds."""
        return time.perf_counter()


class Stopwatch:
    """Accumulating stopwatch over any :class:`ClockProtocol`.

    >>> sw = Stopwatch()
    >>> with sw:
    ...     pass
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self, clock: ClockProtocol | None = None) -> None:
        self._clock = clock if clock is not None else WallClock()
        self._start: float | None = None
        #: Total accumulated seconds across all start/stop intervals.
        self.elapsed: float = 0.0

    def start(self) -> "Stopwatch":
        """Start (or restart) timing; returns ``self`` for chaining."""
        self._start = self._clock.now()
        return self

    def stop(self) -> float:
        """Stop timing, accumulate into :attr:`elapsed`, return the total."""
        if self._start is None:
            raise RuntimeError("Stopwatch.stop() called while not running")
        self.elapsed += self._clock.now() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        """Zero the accumulator and stop the watch if running."""
        self._start = None
        self.elapsed = 0.0

    @property
    def running(self) -> bool:
        """Whether the stopwatch is currently between start() and stop()."""
        return self._start is not None

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
