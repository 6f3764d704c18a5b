"""Chunk-index interface and entry/statistics records."""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.errors import IndexError_

__all__ = ["IndexEntry", "IndexStats", "ChunkIndex"]

#: Maximum fingerprint width we store (SHA-1 = 20 bytes).
MAX_FP_LEN = 20

_ENTRY_STRUCT = struct.Struct(">B20sQQI")  # fp_len, fp(padded), cid, off, len


@dataclass(frozen=True)
class IndexEntry:
    """Location record for one stored chunk.

    ``container_id``/``offset`` locate the chunk inside the container
    store (paper Sec. III-F).  The index counts no references: GC,
    scrub and durability count them from the manifests
    (:func:`repro.core.walk.mark_store`), so a dedup hit only reads.
    """

    fingerprint: bytes
    container_id: int
    offset: int
    length: int

    def __post_init__(self) -> None:
        if not (1 <= len(self.fingerprint) <= MAX_FP_LEN):
            raise IndexError_(
                f"fingerprint length {len(self.fingerprint)} out of range")
        if self.length < 0 or self.offset < 0 or self.container_id < 0:
            raise IndexError_("negative field in index entry")

    # -- fixed-width binary codec (disk runs) ---------------------------
    RECORD_SIZE = _ENTRY_STRUCT.size

    def pack(self) -> bytes:
        """Serialise to the fixed :attr:`RECORD_SIZE`-byte record."""
        fp = self.fingerprint.ljust(MAX_FP_LEN, b"\0")
        return _ENTRY_STRUCT.pack(len(self.fingerprint), fp,
                                  self.container_id, self.offset,
                                  self.length)

    @classmethod
    def unpack(cls, record: bytes) -> "IndexEntry":
        """Inverse of :meth:`pack`."""
        fp_len, fp, cid, off, length = _ENTRY_STRUCT.unpack(record)
        return cls(fingerprint=fp[:fp_len], container_id=cid, offset=off,
                   length=length)

    def bumped(self) -> "IndexEntry":
        """This entry, unchanged — the index keeps no reference count.
        Kept for the placement probe of ``benchmarks/ledger/layers.py``."""
        return self


@dataclass
class IndexStats:
    """Lookup/insert accounting, consumed by the throughput cost model."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    #: *Hits* served without touching disk (memtable/cache).  Invariant:
    #: ``memory_hits <= hits <= lookups`` — a negative lookup is never a
    #: hit, memory or otherwise, so the RAM-residency ratio the
    #: throughput model consumes stays a pure hit-locality measure.
    memory_hits: int = 0
    #: Disk probes issued (each is a potential seek in the disk model).
    disk_probes: int = 0
    #: Bytes read from disk runs.
    disk_bytes: int = 0

    def merge(self, other: "IndexStats") -> None:
        """Accumulate ``other`` into ``self`` (used by composite indices)."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.inserts += other.inserts
        self.memory_hits += other.memory_hits
        self.disk_probes += other.disk_probes
        self.disk_bytes += other.disk_bytes


class ChunkIndex(abc.ABC):
    """Abstract fingerprint → :class:`IndexEntry` map, and one tier of
    an index *stack*.

    A front (cache) sets :attr:`backing` to the tier below it; a leaf
    leaves it ``None``.  The stack hooks — :meth:`begin_batch`,
    :meth:`locality_scores` — default to forwarding down the stack, so
    a tier overrides only what it implements and a caller drives any
    stack through its top tier.  Nothing is ever deleted from an index:
    a backup client drops a stale one whole and rebuilds it from the
    manifests.
    """

    #: The next tier down the stack (``None`` on a leaf).
    backing: Optional["ChunkIndex"] = None

    def __init__(self) -> None:
        #: Running counters; reset by the caller between sessions.
        self.stats = IndexStats()

    @abc.abstractmethod
    def lookup(self, fingerprint: bytes) -> Optional[IndexEntry]:
        """Return the entry for ``fingerprint`` or ``None``."""

    @abc.abstractmethod
    def insert(self, entry: IndexEntry) -> None:
        """Insert ``entry``; replaces any previous entry for the same
        fingerprint (last-writer-wins).  The engine inserts only after
        a miss, but a miss may be approximate (a sparse shard's
        sampled answer), so a chunk can return at a new location."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of distinct fingerprints indexed."""

    @abc.abstractmethod
    def entries(self) -> Iterator[IndexEntry]:
        """Iterate all current entries (order unspecified)."""

    def load(self, entries: Iterable[IndexEntry]) -> None:
        """Fill the index with entries a committed manifest names (a
        backup client's rebuild).  Inserts each; a tier for which an
        insert is a newly stored chunk overrides it."""
        for entry in entries:
            self.insert(entry)

    # -- tier protocol -------------------------------------------------
    def begin_batch(self, fingerprints: Sequence[bytes],
                    stream=None) -> None:
        """Announce the fingerprints the caller is about to look up.

        A hint, never required: a tier that can amortise work over a
        batch (one directory round trip, one champion election) does it
        here.  ``stream`` tags the probing stream for tiers that track
        per-stream locality.
        """
        if self.backing is not None:
            self.backing.begin_batch(fingerprints, stream)

    def locality_scores(self) -> Dict[str, float]:
        """Per-stream locality estimates of the stack's cache tier
        (empty when no tier tracks streams)."""
        if self.backing is None:
            return {}
        return self.backing.locality_scores()

    def tiers(self) -> Iterator["ChunkIndex"]:
        """This tier and everything below it, top first."""
        yield self
        if self.backing is not None:
            yield from self.backing.tiers()

    def stack_stats(self) -> IndexStats:
        """Probe accounting for the whole stack under this tier.

        Fronts keep their own counters and only fall through on a miss,
        so lookup/hit totals come from the top tier (each fall-through
        would double-count) while memory hits and disk IO add up across
        tiers — each tier only counts the work it did itself.  Bulk
        loads write the leaf directly while write-through fronts count
        their own inserts; the largest tier count is the number of
        entries actually written.
        """
        merged = IndexStats(lookups=self.stats.lookups,
                            hits=self.stats.hits)
        for tier in self.tiers():
            level = tier.stats
            merged.memory_hits += level.memory_hits
            merged.disk_probes += level.disk_probes
            merged.disk_bytes += level.disk_bytes
            merged.inserts = max(merged.inserts, level.inserts)
        return merged

    def flush(self) -> None:
        """Persist buffered state (no-op for pure-memory indices)."""

    def close(self) -> None:
        """Release resources; the index must not be used afterwards."""
