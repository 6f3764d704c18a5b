"""Sparse Indexing — the competing answer to the index bottleneck.

The paper's related work contrasts AA-Dedupe's small exact per-app
indices with *Sparse Indexing* (Lillibridge et al., FAST'09 — the
paper's reference [20]), which bounds RAM by **sampling**: only every
``1/2^sample_bits``-th fingerprint (a *hook*) is indexed, mapping to the
segments it appeared in.  An incoming segment is deduplicated only
against a few *champion* segments sharing its hooks; duplicates outside
the champions are missed (approximate dedup), but the RAM footprint is
tiny and each segment costs at most ``max_champions`` sequential
manifest loads instead of per-chunk random IOs.

:class:`SparseShardIndex` implements the algorithm as a
:class:`~repro.index.base.ChunkIndex` so that
``benchmarks/test_bench_sparse_index.py`` can compare it head-to-head
with exact indexing.  It is a comparator, not a fleet directory tier:
a directory shard keeps every committed entry in RAM beside its
backing index, so sampling there would save no RAM and still lose
hits.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.index.base import ChunkIndex, IndexEntry

__all__ = ["SparseShardIndex"]

#: Segments remembered per hook; the oldest mapping is evicted first
#: (FIFO, as in the paper).
MAX_SEGMENTS_PER_HOOK = 8


class SparseShardIndex(ChunkIndex):
    """Sampling-based approximate :class:`~repro.index.base.ChunkIndex`
    (Sparse Indexing, FAST'09).

    The RAM-resident part is the FAST'09 *sparse index*: exact entries
    only for **hook** fingerprints (those whose leading 64 bits have
    ``sample_bits`` trailing zeros) plus a hook → segment map.  Full
    entries live in fixed-size **segment manifests** — modelled on-disk
    structures whose loads are charged to ``stats.disk_probes`` /
    ``disk_bytes``.

    Lookups are approximate: before a probe batch the caller announces
    it via :meth:`begin_batch`, which elects at most ``max_champions`` champion segments by hook overlap
    and loads their manifests; a non-hook fingerprint is only found if
    a champion (or the open, still-in-RAM segment) holds it.  A
    duplicate outside the champions is reported as a miss — the client
    re-uploads it, trading a bounded dedup loss for a RAM footprint
    that is ``~1/2^sample_bits`` of the exact index and at most
    ``max_champions`` sequential manifest loads per batch instead of
    per-fingerprint random IO.
    """

    def __init__(self, segment_chunks: int = 512, sample_bits: int = 4,
                 max_champions: int = 4) -> None:
        super().__init__()
        if segment_chunks < 1 or sample_bits < 0 or max_champions < 1:
            raise ValueError("invalid sparse-shard parameters")
        self.segment_chunks = segment_chunks
        self.sample_mask = (1 << sample_bits) - 1
        self.max_champions = max_champions
        self._hooks: Dict[bytes, IndexEntry] = {}
        self._hook_segments: Dict[bytes, List[int]] = {}
        self._segments: Dict[int, Dict[bytes, IndexEntry]] = {}
        self._open: Dict[bytes, IndexEntry] = {}
        self._loaded: Dict[bytes, IndexEntry] = {}
        self._next_segment = 0
        self.champions_loaded = 0

    # ------------------------------------------------------------------
    def _is_hook(self, fingerprint: bytes) -> bool:
        return (int.from_bytes(fingerprint[:8], "big")
                & self.sample_mask) == 0

    def begin_batch(self, fingerprints, stream=None) -> None:
        """Elect and load champion segments for one probe batch."""
        votes: Dict[int, int] = {}
        for fp in fingerprints:
            for segment in self._hook_segments.get(fp, ()):
                votes[segment] = votes.get(segment, 0) + 1
        champions = sorted(votes, key=lambda s: (-votes[s], -s))
        self._loaded = {}
        # Oldest first, so a re-inserted fingerprint's newest copy wins.
        for segment in sorted(champions[: self.max_champions]):
            manifest = self._segments[segment]
            self._loaded.update(manifest)
            self.champions_loaded += 1
            self.stats.disk_probes += 1
            self.stats.disk_bytes += len(manifest) * IndexEntry.RECORD_SIZE

    def _seal(self) -> None:
        if not self._open:
            return
        segment_id = self._next_segment
        self._next_segment += 1
        manifest = self._open
        self._open = {}
        self._segments[segment_id] = manifest
        for fp in manifest:
            if self._is_hook(fp):
                entries = self._hook_segments.setdefault(fp, [])
                if len(entries) >= MAX_SEGMENTS_PER_HOOK:
                    entries.pop(0)
                entries.append(segment_id)

    # -- ChunkIndex interface ------------------------------------------
    def lookup(self, fingerprint: bytes) -> Optional[IndexEntry]:
        """Hooks and the open segment from RAM; everything else only
        through the champions loaded for the current batch."""
        self.stats.lookups += 1
        entry = self._hooks.get(fingerprint)
        if entry is None:
            entry = self._open.get(fingerprint)
        if entry is not None:
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return entry
        entry = self._loaded.get(fingerprint)
        if entry is not None:
            self.stats.hits += 1  # IO already charged by begin_batch
        return entry

    def insert(self, entry: IndexEntry) -> None:
        self.stats.inserts += 1
        fingerprint = entry.fingerprint
        self._open[fingerprint] = entry
        if self._is_hook(fingerprint):
            self._hooks[fingerprint] = entry
        if len(self._open) >= self.segment_chunks:
            self._seal()

    def __len__(self) -> int:
        """Distinct fingerprints — a re-insert (a chunk stored again
        after an approximate miss) may leave a stale copy in an older
        sealed segment, which counts once."""
        return len(set(self._open).union(*self._segments.values()))

    def entries(self) -> Iterator[IndexEntry]:
        """Every stored fingerprint once, newest version (open segment,
        then sealed manifests newest first)."""
        seen: Set[bytes] = set()
        newest_first = [self._open] + [
            self._segments[segment_id]
            for segment_id in sorted(self._segments, reverse=True)]
        for manifest in newest_first:
            for fingerprint, entry in list(manifest.items()):
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    yield entry

    # ------------------------------------------------------------------
    def ram_entries(self) -> int:
        """RAM-resident entries: hooks + the open segment buffer."""
        return len(self._hooks) + len(self._open)
