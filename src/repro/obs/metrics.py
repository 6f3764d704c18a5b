"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the numeric companion to the span tracer: spans answer
"where did the time go", metrics answer "how big / how many / how
often".  Instrumented components get-or-create instruments by name, so
one registry accumulates a whole session regardless of how many layers
record into it.

Histograms use *fixed* bucket upper bounds chosen at creation
(Prometheus-style cumulative-le semantics are deliberately avoided —
each bucket counts only its own range, which renders more readably in
the fixed-width report tables).  Everything is lock-protected; the
pipelined uploader and parallel dedup workers record concurrently.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.report import Table

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "CHUNK_SIZE_BUCKETS", "LATENCY_BUCKETS"]

#: Default byte-size buckets for chunk/container histograms (bytes).
CHUNK_SIZE_BUCKETS: Tuple[float, ...] = (
    512, 2048, 4096, 8192, 16384, 65536, 262144, 1048576)

#: Default latency buckets for lookup/transfer histograms (seconds).
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Counter:
    """Monotonically increasing count (optionally of a float quantity)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value, tracking the high-water mark as well."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.max_value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self.value = value
            if value > self.max_value:
                self.max_value = value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``buckets`` are the inclusive upper bounds of each bin; values above
    the last bound land in an implicit overflow bin.
    """

    def __init__(self, name: str,
                 buckets: Sequence[float] = CHUNK_SIZE_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a sorted non-empty sequence")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.total: float = 0.0
        self.count: int = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = self._bucket_index(value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def bucket_label(self, index: int) -> str:
        """Human-readable range label for bin ``index``."""
        if index >= len(self.buckets):
            return f">{self.buckets[-1]:g}"
        lo = 0.0 if index == 0 else self.buckets[index - 1]
        return f"({lo:g}, {self.buckets[index]:g}]"


class MetricsRegistry:
    """Get-or-create home for all instruments of one profiling run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter registered as ``name`` (created on first use)."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered as ``name`` (created on first use)."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] = CHUNK_SIZE_BUCKETS
                  ) -> Histogram:
        """The histogram registered as ``name`` (created on first use).

        ``buckets`` only applies on creation; later callers get the
        existing instrument unchanged.
        """
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, buckets)
            return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict dump of every instrument (JSON-friendly)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: {"value": g.value, "max": g.max_value}
                       for n, g in sorted(gauges.items())},
            "histograms": {
                n: {"count": h.count, "sum": h.total, "mean": h.mean,
                    "min": h.min, "max": h.max,
                    "buckets": {h.bucket_label(i): count
                                for i, count in enumerate(h.counts)
                                if count}}
                for n, h in sorted(histograms.items())},
        }

    def render(self) -> str:
        """Fixed-width report of all instruments (empty string if none)."""
        snap = self.snapshot()
        sections: List[str] = []
        if snap["counters"]:
            table = Table(["counter", "value"], title="Counters")
            for name, value in snap["counters"].items():
                table.add_row([name, value])
            sections.append(table.render())
        if snap["gauges"]:
            table = Table(["gauge", "value", "max"], title="Gauges")
            for name, values in snap["gauges"].items():
                table.add_row([name, values["value"], values["max"]])
            sections.append(table.render())
        for name, h in snap["histograms"].items():
            table = Table(["bucket", "count"],
                          title=f"Histogram {name} "
                                f"(n={h['count']}, mean={h['mean']:.4g})")
            for label, count in h["buckets"].items():
                table.add_row([label, count])
            sections.append(table.render())
        return "\n\n".join(sections)
