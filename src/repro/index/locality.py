"""Locality-prioritized fingerprint cache (HPDedup-style).

A plain LRU front over a directory shard treats every probing stream
the same, so one client churning through cold, never-repeating
fingerprints evicts the working set of a client whose stream has high
temporal locality.  HPDedup (arxiv 1702.08153) fixes this by
*estimating each stream's temporal locality* and giving cache space to
the streams that will actually reuse it.

:class:`LocalityCache` implements that idea as a drop-in
:class:`~repro.index.base.ChunkIndex` front:

* callers tag the probing stream through the ``stream`` argument of
  :meth:`begin_batch` (the fleet directory passes the client rank,
  making the estimate per ``(client, app)`` since shards are already
  per-app); with a single stream the cache is a plain LRU;
* locality is estimated from **hit run lengths** — consecutive cache
  hits extend the stream's current run, a miss folds the run into an
  exponentially-weighted moving average;
* cached entries belong to the stream that most recently touched them,
  and eviction removes the oldest entry of the **lowest-locality**
  stream first (ties broken by stream id, so eviction order is a pure
  function of the probe sequence).

Scores are exposed through :meth:`locality_scores` so the fleet
directory can surface them in ``stats_rows()``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional

from repro.index.base import ChunkIndex, IndexEntry

__all__ = ["LocalityCache"]

#: Stream id used until a :meth:`LocalityCache.begin_batch` names one.
DEFAULT_STREAM = "?"


class LocalityCache(ChunkIndex):
    """Bounded cache front that evicts low-locality streams first.

    ``alpha`` is the EWMA weight of the most recent run length; higher
    values adapt faster to a stream changing phase.  Negative lookups
    are *not* cached (a dedup workload is insert-heavy: a miss is
    immediately followed by an insert of the same key, which populates
    the cache).
    """

    def __init__(self, backing: ChunkIndex, capacity: int,
                 alpha: float = 0.25) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        self.backing = backing
        self.capacity = capacity
        self.alpha = alpha
        self._entries: Dict[bytes, IndexEntry] = {}
        #: fingerprint -> owning stream (the stream that last touched it).
        self._owner: Dict[bytes, str] = {}
        #: stream -> recency order of its cached fingerprints.
        self._lru: Dict[str, OrderedDict] = {}
        #: stream -> EWMA of completed hit run lengths.
        self._ewma: Dict[str, float] = {}
        #: stream -> length of the hit run currently in progress.
        self._run: Dict[str, int] = {}
        self._stream = DEFAULT_STREAM
        self.cache_hits = 0
        self.cache_misses = 0
        self.evictions = 0

    # -- stream accounting ---------------------------------------------
    def begin_batch(self, fingerprints, stream=None) -> None:
        """Attribute subsequent probes to ``stream`` (when given)."""
        if stream is not None:
            self._stream = str(stream)
        self.backing.begin_batch(fingerprints, stream)

    def _score(self, stream: str) -> float:
        """Effective locality: historical EWMA or the live run, whichever
        is higher — a stream mid-burst must not be evicted for having a
        cold history."""
        return max(self._ewma.get(stream, 0.0),
                   float(self._run.get(stream, 0)))

    def locality_scores(self) -> Dict[str, float]:
        """Current per-stream locality estimates (for ``stats_rows``)."""
        streams = set(self._ewma) | set(self._run) | set(self._lru)
        return {s: round(self._score(s), 3) for s in sorted(streams)}

    # -- cache mechanics -----------------------------------------------
    def _touch(self, fingerprint: bytes) -> None:
        stream = self._stream
        owner = self._owner[fingerprint]
        if owner != stream:
            del self._lru[owner][fingerprint]
            self._owner[fingerprint] = stream
        self._lru.setdefault(stream, OrderedDict())[fingerprint] = None
        self._lru[stream].move_to_end(fingerprint)

    def _remember(self, entry: IndexEntry) -> None:
        fingerprint = entry.fingerprint
        self._entries[fingerprint] = entry
        if fingerprint in self._owner:
            self._touch(fingerprint)
        else:
            self._owner[fingerprint] = self._stream
            self._lru.setdefault(self._stream,
                                 OrderedDict())[fingerprint] = None
        while len(self._entries) > self.capacity:
            self._evict_one()

    def _evict_one(self) -> None:
        victim_stream = min(
            (s for s, lru in self._lru.items() if lru),
            key=lambda s: (self._score(s), s))
        fingerprint, _ = self._lru[victim_stream].popitem(last=False)
        del self._entries[fingerprint]
        del self._owner[fingerprint]
        self.evictions += 1

    # -- ChunkIndex interface ------------------------------------------
    def lookup(self, fingerprint: bytes) -> Optional[IndexEntry]:
        """Cache first; a miss closes the stream's hit run and falls
        through to the backing index."""
        self.stats.lookups += 1
        stream = self._stream
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self.cache_hits += 1
            self.stats.hits += 1
            self.stats.memory_hits += 1
            self._run[stream] = self._run.get(stream, 0) + 1
            self._touch(fingerprint)
            return entry
        # Fold the finished run (possibly 0) into the stream's EWMA: a
        # miss streak decays the score toward zero.
        self._ewma[stream] = ((1.0 - self.alpha)
                              * self._ewma.get(stream, 0.0)
                              + self.alpha * self._run.get(stream, 0))
        self._run[stream] = 0
        self.cache_misses += 1
        entry = self.backing.lookup(fingerprint)
        if entry is not None:
            self.stats.hits += 1
            self._remember(entry)
        return entry

    def insert(self, entry: IndexEntry) -> None:
        """Write-through insert (backing index stays authoritative)."""
        self.stats.inserts += 1
        self.backing.insert(entry)
        self._remember(entry)

    def __len__(self) -> int:
        return len(self.backing)

    def entries(self) -> Iterator[IndexEntry]:
        """Delegate to the backing index."""
        return self.backing.entries()

    def flush(self) -> None:
        self.backing.flush()

    def close(self) -> None:
        self.backing.close()
        self._entries.clear()
        self._owner.clear()
        self._lru.clear()
