"""The application-aware index structure (paper Sec. III-E, Fig. 6).

Observation 2 — cross-application duplicate data is negligible — lets the
full fingerprint index be partitioned into one *small, independent* index
per application label without losing dedup effectiveness.  Benefits the
paper claims, all realised here:

* each subindex stays small enough to be RAM-resident (no disk-bottleneck
  seeks — measurable via each subindex's :class:`IndexStats`);
* lookups for different applications are independent: no operation
  ever touches two subindices;
* the partition also yields natural sharding for the periodic cloud
  synchronisation of the index (:mod:`repro.core.sync`).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.index.base import ChunkIndex, IndexEntry, IndexStats
from repro.index.memory import MemoryIndex
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.tracer import NOOP_TRACER

__all__ = ["AppAwareIndex"]


class AppAwareIndex:
    """A family of per-application chunk indices.

    ``factory(app_label)`` builds the subindex for a new application label
    (default: :class:`MemoryIndex`, reflecting that per-app indices fit in
    RAM; tests also exercise :class:`~repro.index.disk.DiskIndex`
    factories).  The composite is *not* itself a :class:`ChunkIndex`
    because every operation requires the application label — that routing
    is the whole point.
    """

    def __init__(self,
                 factory: Callable[[str], ChunkIndex] | None = None,
                 tracer=None) -> None:
        self._factory = factory or (lambda app: MemoryIndex())
        self._subindices: Dict[str, ChunkIndex] = {}
        self._create_lock = threading.Lock()
        self.tracer = tracer if tracer is not None else NOOP_TRACER

    # ------------------------------------------------------------------
    def subindex(self, app: str) -> ChunkIndex:
        """Return (creating on first use) the index for application ``app``.

        Creation is locked so concurrent per-application workers (the
        parallel dedup mode) cannot race; operations *within* one
        subindex are only ever issued by its own application's worker.
        """
        idx = self._subindices.get(app)
        if idx is None:
            with self._create_lock:
                idx = self._subindices.get(app)
                if idx is None:
                    idx = self._subindices[app] = self._factory(app)
        return idx

    def begin_batch(self, app: str, fingerprints: Sequence[bytes]) -> None:
        """Announce the fingerprints about to be looked up in ``app``'s
        subindex (see :meth:`ChunkIndex.begin_batch`)."""
        self.subindex(app).begin_batch(fingerprints)

    def lookup(self, app: str, fingerprint: bytes) -> Optional[IndexEntry]:
        """Route a lookup to ``app``'s subindex only."""
        tracer = self.tracer
        with tracer.span("index.lookup", app=app) as sp:
            entry = self.subindex(app).lookup(fingerprint)
            sp.set("hit", entry is not None)
        if tracer.enabled:
            tracer.metrics.histogram(
                "index_lookup_seconds",
                LATENCY_BUCKETS).observe(sp.duration)
            tracer.metrics.counter("index_lookups_total").inc()
        return entry

    def insert(self, app: str, entry: IndexEntry) -> None:
        """Insert into ``app``'s subindex."""
        with self.tracer.span("index.insert", app=app):
            self.subindex(app).insert(entry)

    def contains(self, app: str, fingerprint: bytes) -> bool:
        """Membership test within one application's namespace."""
        return self.lookup(app, fingerprint) is not None

    # ------------------------------------------------------------------
    @property
    def apps(self) -> List[str]:
        """Labels of all materialised subindices (sorted)."""
        return sorted(self._subindices)

    def __len__(self) -> int:
        """Total distinct fingerprints across all subindices."""
        return sum(len(idx) for idx in self._subindices.values())

    def entries(self) -> Iterator[Tuple[str, IndexEntry]]:
        """Iterate ``(app, entry)`` over the whole family."""
        for app in self.apps:
            for entry in self._subindices[app].entries():
                yield app, entry

    def sizes(self) -> Dict[str, int]:
        """Entry count per application — Fig.-6-style index sizing data."""
        return {app: len(idx) for app, idx in self._subindices.items()}

    def combined_stats(self) -> IndexStats:
        """Merged :class:`IndexStats` across subindices."""
        total = IndexStats()
        for idx in self._subindices.values():
            total.merge(idx.stats)
        return total

    def reset_stats(self) -> None:
        """Zero all subindex counters (between backup sessions)."""
        for idx in self._subindices.values():
            idx.stats = IndexStats()

    def flush(self) -> None:
        """Flush every subindex."""
        for idx in self._subindices.values():
            idx.flush()

    def close(self) -> None:
        """Close every subindex."""
        for idx in self._subindices.values():
            idx.close()

    def approximate_bytes(self) -> int:
        """Total footprint (sum of subindex footprints)."""
        return sum(idx.approximate_bytes()
                   for idx in self._subindices.values())
