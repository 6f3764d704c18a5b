"""Server-side global deduplication directory for a backup fleet.

One AA-Dedupe client deduplicates against its *own* per-application
subindices (paper Sec. III-D).  A cloud provider serving a fleet of
clients can do better: a chunk uploaded by any client is addressable by
every other, so the service keeps a **global directory** of fingerprints
on the server side.  To keep any single lookup structure small and the
load spread, the directory is sharded by ``(app_label, consistent-hash
bucket)`` — the application label first (preserving the paper's
observation that cross-application chunk collisions are negligible, so
shards never need cross-app probes), then a consistent-hash arc of
the fingerprint: each of the ``shards_per_app`` buckets owns
``VNODES`` pseudo-random points on a 64-bit circle, and a fingerprint
belongs to the owner of the first point after its own hash.  The bucket
set is fixed per directory, so one routing table serves every app and
load spreads evenly for any bucket count (a single-byte prefix map
would cap a directory at 256 buckets).

Each :class:`DirectoryShard` owns an independent
:class:`~repro.index.base.ChunkIndex` and its own lock, so probes
against different shards never contend.  Probes are **batched**:
:meth:`GlobalDedupDirectory.probe_batch` groups fingerprints by shard
and probes each shard once per batch, which is what lets a disk-backed
shard amortise seeks (the per-shard ``batches`` counter versus ``probes``
makes the amortisation visible to the cost model).

At million-client scale two tiers stack onto each shard (see
docs/FLEET.md, which also records the tiers measured and deleted):

* a **Bloom filter front** (``filter_capacity``) — the DDFS [Zhu08]
  summary vector: a negative probe the filter answers touches neither
  the backing index nor the ``batches`` seek counter, so cold-miss
  floods cost RAM bit tests, not disk;
* a **locality-prioritized cache** (``cache_capacity``) — the
  HPDedup (arxiv 1702.08153) front: per-stream temporal locality is
  estimated from hit run lengths and low-locality streams are evicted
  first (with one probing stream it is a plain LRU).

Visibility is **epoch-based** so fleet runs are deterministic under any
thread interleaving: lookups only see entries committed by a previous
:meth:`~GlobalDedupDirectory.commit_epoch`; publishes land in a pending
buffer where the lowest client rank wins ties.  The *shard topology*
itself is epoch-based too: publishes to a bucket whose shard does not
exist yet buffer directory-side and the shard materialises at the next
commit, so the set of live shards is frozen between barriers — a probe
racing a publish in the same wave observes the same topology no matter
how threads interleave, which keeps every per-shard counter
``max_workers``-independent.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.index.base import ChunkIndex, IndexEntry
from repro.index.bloom import BloomFilter
from repro.index.locality import LocalityCache
from repro.index.memory import MemoryIndex
from repro.obs.tracer import NOOP_TRACER

__all__ = ["DirectoryShard", "GlobalDedupDirectory"]

#: Target false-positive rate of every shard's Bloom front.
FILTER_FP_RATE = 0.01

#: Routing points (virtual nodes) per bucket on the hash circle.
VNODES = 128


def _hash64(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


class DirectoryShard:
    """One ``(app, bucket)`` shard: filter front, committed index,
    pending buffer.

    ``index`` is the top tier of the shard's declared index stack
    (:meth:`~repro.index.base.ChunkIndex.tiers`) and answers probes;
    the pending dict holds entries published during the current epoch,
    invisible until :meth:`commit`.  ``_known`` maps every committed
    fingerprint to its entry, shadowing the committed index so commits
    never issue lookups against it — shard probe statistics stay a pure
    measure of client-driven load.
    """

    def __init__(self, app: str, bucket: int, index: ChunkIndex,
                 bloom: Optional[BloomFilter] = None) -> None:
        self.app = app
        self.bucket = bucket
        self.index = index
        # Epoch commits bulk-load the leaf, not through the cache
        # fronts: they are entries nobody has probed yet, and pushing
        # hundreds of them through a bounded cache per epoch would
        # evict the probe path's hot working set (cache fronts
        # populate from *probe* traffic only).
        *_fronts, self._leaf = index.tiers()
        self.bloom = bloom
        self.lock = threading.Lock()
        self._pending: Dict[bytes, Tuple[int, IndexEntry]] = {}
        self._known: Dict[bytes, IndexEntry] = {}
        #: Batched probe rounds that reached the backing index (each is
        #: one potential seek on a disk-backed shard; ``probes /
        #: batches`` is the amortisation).  Batches the filter front
        #: fully absorbed are not counted — they cost no seek.
        self.batches = 0
        #: Fingerprints probed in total.
        self.probes = 0
        #: Probes answered from the committed index.
        self.hits = 0
        #: Negative probes answered by the Bloom front without touching
        #: the backing index.
        self.filter_rejects = 0
        #: Entries offered by publishers (including duplicates).
        self.publishes = 0
        #: Entries actually committed (first publisher by rank wins).
        self.accepted = 0

    @property
    def name(self) -> str:
        return f"{self.app}/{self.bucket}"

    def __len__(self) -> int:
        return len(self._known)

    def committed_entries(self) -> List[IndexEntry]:
        """Committed entries in fingerprint order (no stats impact)."""
        with self.lock:
            return [self._known[fp] for fp in sorted(self._known)]

    # ------------------------------------------------------------------
    def probe(self, fingerprints: Sequence[bytes], stream=None
              ) -> Tuple[List[Optional[IndexEntry]], List[bool]]:
        """One batched probe against the committed tier.

        Returns results aligned with the input plus an ``absorbed``
        flag per position: ``True`` means the miss was answered by the
        Bloom front alone — no index lookup, no seek, and (because the
        filter has no false negatives over the committed set) no lost
        hit.  ``stream`` tags the probing ``(client, app)`` stream for
        locality estimation.
        """
        with self.lock:
            self.probes += len(fingerprints)
            out: List[Optional[IndexEntry]] = [None] * len(fingerprints)
            absorbed = [False] * len(fingerprints)
            todo: List[int] = []
            for i, fp in enumerate(fingerprints):
                if self.bloom is not None \
                        and not self.bloom.might_contain(fp):
                    self.filter_rejects += 1
                    absorbed[i] = True
                else:
                    todo.append(i)
            if todo:
                self.batches += 1
                self.index.begin_batch([fingerprints[i] for i in todo],
                                       stream)
                for i in todo:
                    entry = self.index.lookup(fingerprints[i])
                    if entry is not None:
                        self.hits += 1
                    out[i] = entry
            return out, absorbed

    def offer(self, entries: Sequence[IndexEntry], rank: int) -> None:
        """Buffer entries for the next epoch; lowest rank wins ties."""
        with self.lock:
            self.publishes += len(entries)
            for entry in entries:
                fp = entry.fingerprint
                if fp in self._known:
                    continue  # already committed; location is settled
                current = self._pending.get(fp)
                if current is None or rank < current[0]:
                    self._pending[fp] = (rank, entry)

    def commit(self) -> int:
        """Fold the pending buffer into the committed leaf index.

        Entries land in sorted fingerprint order so the backing index's
        physical layout (memtable spills, run contents) is identical no
        matter which thread published first, and enter the Bloom front
        here — the filter always reflects exactly the committed set.
        A filter the committed set outgrew is rebuilt at a doubled
        capacity, keeping the false-positive rate near target.
        """
        with self.lock:
            pending = sorted(self._pending)
            for fp in pending:
                entry = self._pending[fp][1]
                self._leaf.insert(entry)
                self._known[fp] = entry
                if self.bloom is not None:
                    self.bloom.add(fp)
            self._pending.clear()
            bloom = self.bloom
            if bloom is not None and bloom.count > bloom.capacity:
                capacity = bloom.capacity
                while capacity < len(self._known):
                    capacity *= 2
                self.bloom = BloomFilter(capacity=capacity,
                                         fp_rate=bloom.fp_rate)
                for fp in self._known:
                    self.bloom.add(fp)
            self.accepted += len(pending)
            return len(pending)


class GlobalDedupDirectory:
    """Fingerprint directory sharded by ``(app, consistent-hash arc)``.

    ``index_factory(app, bucket)`` builds each shard's backing index
    stack (default: :class:`~repro.index.memory.MemoryIndex`).  A
    positive ``cache_capacity`` fronts every shard with the
    HPDedup-style :class:`~repro.index.locality.LocalityCache`.  A
    positive ``filter_capacity`` puts a Bloom filter in front of every
    shard's committed set.

    Note that cache-front hit *statistics* depend on probe arrival
    order, so determinism assertions over shard stats should run the
    cache serially or use the default memory backing; committed
    *content* is order-independent either way.
    """

    def __init__(self,
                 shards_per_app: int = 4,
                 index_factory: Optional[
                     Callable[[str, int], ChunkIndex]] = None,
                 cache_capacity: int = 0,
                 filter_capacity: int = 0,
                 tracer=None) -> None:
        if shards_per_app < 1:
            raise ValueError("shards_per_app must be >= 1")
        self.shards_per_app = shards_per_app
        self._factory = index_factory or (lambda app, bucket: MemoryIndex())
        self._cache_capacity = cache_capacity
        self._filter_capacity = filter_capacity
        # One routing table for every app: VNODES points per bucket,
        # sorted by (point, bucket) so a point collision resolves to the
        # lower bucket.
        table = sorted((_hash64(f"shard-{bucket}/{replica}".encode()),
                        bucket)
                       for bucket in range(shards_per_app)
                       for replica in range(VNODES))
        self._points = [point for point, _bucket in table]
        self._owners = [bucket for _point, bucket in table]
        self._shards: Dict[Tuple[str, int], DirectoryShard] = {}
        self._create_lock = threading.Lock()
        # Offers addressed to shards that do not exist yet, buffered
        # until the next epoch barrier materialises the shard — the
        # live-shard set must only change at barriers (see module
        # docstring).  key -> [(rank, entries), ...] in arrival order
        # (the lowest-rank-wins merge is order-independent).
        self._unallocated: Dict[
            Tuple[str, int],
            List[Tuple[int, Sequence[IndexEntry]]]] = {}
        self._pending_lock = threading.Lock()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Commit epoch counter; bumped by :meth:`commit_epoch`.  Client
        #: caches key their negative memos on it (a miss stays a miss
        #: until the next commit).
        self.epoch = 0
        #: Read-path probes against shards that were never allocated
        #: (answered as misses without creating the shard).
        self.absent_probes = 0
        #: Probe traffic per ``stream`` (a fleet client's rank):
        #: ``probes``, ``hits`` and hit ``bytes`` (what it adopts).  It
        #: outlives the client's index, which may be dropped.
        self.traffic: Dict[object, Counter] = {}
        self._rejects_reported = 0

    # ------------------------------------------------------------------
    def _bucket(self, fingerprint: bytes) -> int:
        """Owner of the first routing point after the fingerprint's
        hash (wrapping past the last point to the first)."""
        idx = bisect_right(self._points, _hash64(fingerprint))
        return self._owners[idx % len(self._points)]

    def _shard(self, app: str, bucket: int) -> DirectoryShard:
        key = (app, bucket)
        shard = self._shards.get(key)
        if shard is None:
            with self._create_lock:
                shard = self._shards.get(key)
                if shard is None:
                    index = self._factory(app, bucket)
                    if self._cache_capacity > 0:
                        index = LocalityCache(index, self._cache_capacity)
                    bloom = None
                    if self._filter_capacity > 0:
                        bloom = BloomFilter(capacity=self._filter_capacity,
                                            fp_rate=FILTER_FP_RATE)
                    shard = DirectoryShard(app, bucket, index, bloom=bloom)
                    self._shards[key] = shard
        return shard

    def shards(self) -> List[DirectoryShard]:
        """All shards, ordered by ``(app, bucket)``."""
        return [self._shards[key] for key in sorted(self._shards)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    # ------------------------------------------------------------------
    def probe_batch(self, app: str, fingerprints: Sequence[bytes],
                    stream=None
                    ) -> Tuple[List[Optional[IndexEntry]], List[bool]]:
        """Probe a batch, returning entries plus per-position
        ``absorbed`` flags.

        ``absorbed[i]`` means the miss was answered without touching
        any backing index — by a shard's Bloom front, or because the
        shard was never allocated at all.  Clients use the flag to keep
        their negative memos bounded: an absorbed miss is already as
        cheap as a memo hit.  Lookups against apps or arcs that never
        saw a publish **do not allocate shards** — at fleet scale a
        probe-only app would otherwise permanently leak empty shards
        into memory and ``stats_rows()``.
        """
        if not fingerprints:
            return [], []
        groups: Dict[int, List[int]] = {}
        for pos, fp in enumerate(fingerprints):
            groups.setdefault(self._bucket(fp), []).append(pos)
        out: List[Optional[IndexEntry]] = [None] * len(fingerprints)
        absorbed = [False] * len(fingerprints)
        for bucket in sorted(groups):
            positions = groups[bucket]
            shard = self._shards.get((app, bucket))
            if shard is None:
                with self._pending_lock:
                    self.absent_probes += len(positions)
                for pos in positions:
                    absorbed[pos] = True
                continue
            found, shard_absorbed = shard.probe(
                [fingerprints[pos] for pos in positions], stream=stream)
            for pos, entry, flag in zip(positions, found, shard_absorbed):
                out[pos] = entry
                absorbed[pos] = flag
        hits = [entry.length for entry in out if entry is not None]
        with self._pending_lock:
            traffic = self.traffic.setdefault(stream, Counter())
            traffic.update(probes=len(fingerprints), hits=len(hits),
                           bytes=sum(hits))
        return out, absorbed

    def publish_batch(self, app: str, entries: Sequence[IndexEntry],
                      rank: int) -> None:
        """Offer entries for the next epoch, grouped by shard.

        Offers to a bucket whose shard does not exist yet buffer
        directory-side; the shard materialises at the next epoch
        barrier.  Creating it here instead would let a publish change
        the live-shard topology mid-wave, making concurrent probes'
        counters depend on thread timing.
        """
        if not entries:
            return
        groups: Dict[int, List[IndexEntry]] = {}
        for entry in entries:
            groups.setdefault(self._bucket(entry.fingerprint),
                              []).append(entry)
        for bucket in sorted(groups):
            shard = self._shards.get((app, bucket))
            if shard is not None:
                shard.offer(groups[bucket], rank)
                continue
            with self._pending_lock:
                self._unallocated.setdefault((app, bucket), []).append(
                    (rank, groups[bucket]))

    # ------------------------------------------------------------------
    def commit_epoch(self) -> int:
        """Make every pending publish visible; returns entries committed."""
        tracer = self.tracer
        with tracer.span("fleet.commit_epoch", epoch=self.epoch) as span:
            with self._pending_lock:
                unallocated = self._unallocated
                self._unallocated = {}
            for key in sorted(unallocated):
                shard = self._shard(*key)
                for rank, entries in unallocated[key]:
                    shard.offer(entries, rank)
            committed = 0
            for shard in self.shards():
                committed += shard.commit()
            self.epoch += 1
            span.set("committed", committed)
            if tracer.enabled:
                metrics = tracer.metrics
                metrics.counter(
                    "fleet_directory_committed_total").inc(committed)
                metrics.gauge("fleet_directory_entries").set(len(self))
                rejects = self.filter_rejects
                if rejects > self._rejects_reported:
                    metrics.counter("fleet_filter_rejects_total").inc(
                        rejects - self._rejects_reported)
                    self._rejects_reported = rejects
        return committed

    # ------------------------------------------------------------------
    @property
    def filter_rejects(self) -> int:
        """Cold probes absorbed by shard Bloom fronts, fleet-wide."""
        return sum(s.filter_rejects for s in self._shards.values())

    def stats_rows(self) -> List[dict]:
        """Per-shard accounting for reports and the server cost model.

        ``batches`` is the seek-relevant count for a disk-backed shard
        (one batched probe that reached the index = one descent);
        ``filter_rejects`` is the load the Bloom front absorbed before
        it could become a seek; ``disk_probes`` and ``memory_hits``
        come from the whole index stack and split the load between RAM
        and the server's disks; ``locality`` carries the per-stream
        scores when a :class:`~repro.index.locality.LocalityCache`
        fronts the shard.
        """
        rows = []
        for shard in self.shards():
            stats = shard.index.stack_stats()
            rows.append({
                "shard": shard.name,
                "entries": len(shard),
                "batches": shard.batches,
                "probes": shard.probes,
                "hits": shard.hits,
                "filter_rejects": shard.filter_rejects,
                "publishes": shard.publishes,
                "accepted": shard.accepted,
                "memory_hits": stats.memory_hits,
                "disk_probes": stats.disk_probes,
                "locality": shard.index.locality_scores(),
            })
        return rows

    def close(self) -> None:
        """Close every shard's backing index (noop for memory shards)."""
        for shard in self.shards():
            shard.index.close()
