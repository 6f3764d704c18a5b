"""Tests for Sparse Indexing (repro.index.sparse): the FAST'09 segment
deduper driven through the ``ChunkIndex`` tier protocol."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import IndexEntry, SparseShardIndex
from repro.index.sparse import MAX_SEGMENTS_PER_HOOK


def fp_of(chunk_id: int) -> bytes:
    """Fingerprint whose hook bits are the chunk id's low bits."""
    return int(chunk_id).to_bytes(8, "big")


@dataclass
class Outcome:
    chunks_total: int = 0
    chunks_deduped: int = 0
    bytes_total: int = 0
    bytes_unique: int = 0
    bytes_deduped: int = 0
    segments: int = 0

    @property
    def dedup_ratio(self) -> float:
        return self.bytes_total / self.bytes_unique


def dedupe(index: SparseShardIndex, ids, segment_chunks: int,
           length: int = 8192, outcome: Outcome | None = None) -> Outcome:
    """Segment-based dedup of a chunk-id stream: announce each incoming
    segment (champion election), then look up / insert chunk by chunk."""
    out = outcome if outcome is not None else Outcome()
    fps = [fp_of(i) for i in ids]
    for base in range(0, len(fps), segment_chunks):
        segment = fps[base:base + segment_chunks]
        index.begin_batch(segment)
        out.segments += 1
        for fp in segment:
            out.chunks_total += 1
            out.bytes_total += length
            if index.lookup(fp) is not None:
                out.chunks_deduped += 1
                out.bytes_deduped += length
            else:
                out.bytes_unique += length
                index.insert(IndexEntry(fp, 0, out.chunks_total, length))
    return out


class TestSparseIndexDeduper:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseShardIndex(segment_chunks=0)
        with pytest.raises(ValueError):
            SparseShardIndex(max_champions=0)
        with pytest.raises(ValueError):
            SparseShardIndex(sample_bits=-1)

    def test_no_duplicates_all_unique(self):
        index = SparseShardIndex(segment_chunks=16, sample_bits=2)
        out = dedupe(index, range(1, 101), 16)
        assert out.chunks_total == 100
        assert out.chunks_deduped == 0
        assert out.bytes_unique + out.bytes_deduped == out.bytes_total
        assert len(index) == 100

    def test_repeated_stream_mostly_dedups(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(1, 2**60, size=2000)
        index = SparseShardIndex(segment_chunks=128, sample_bits=4,
                                 max_champions=4)
        out = dedupe(index, ids, 128)
        dedupe(index, ids, 128, outcome=out)  # the second "weekly full"
        # The second pass re-presents identical segments: hook overlap
        # finds the right champions and nearly everything dedups.
        assert out.chunks_deduped >= 0.9 * len(ids)

    def test_approximate_misses_without_hooks(self):
        # A duplicate region with NO sampled hook cannot be found — the
        # defining limitation vs exact indexing.
        index = SparseShardIndex(segment_chunks=8, sample_bits=8,
                                 max_champions=2)
        # ids chosen so none is a hook (low 8 bits never zero).
        ids = [(i << 9) | 1 for i in range(1, 17)]
        out = dedupe(index, ids, 8)
        dedupe(index, ids, 8, outcome=out)
        assert out.chunks_deduped == 0  # exact dedup would find 16

    def test_intra_segment_duplicates_found(self):
        index = SparseShardIndex(segment_chunks=32)
        out = dedupe(index, [5, 6, 7, 5, 6, 7], 32)
        assert out.chunks_deduped == 3

    def test_ram_is_sampled(self):
        rng = np.random.default_rng(2)
        ids = rng.integers(1, 2**60, size=5000)
        index = SparseShardIndex(segment_chunks=256, sample_bits=6)
        out = dedupe(index, ids, 256)
        # ~1/64 of fingerprints are hooks; the open segment buffer is
        # the only other RAM-resident state.
        assert index.ram_entries() < len(ids) / 16
        assert index.approximate_bytes() == \
            index.ram_entries() * IndexEntry.RECORD_SIZE
        assert len(index) == out.chunks_total - out.chunks_deduped

    def test_champion_budget_respected(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(1, 2**60, size=4000)
        index = SparseShardIndex(segment_chunks=128, max_champions=2)
        out = Outcome()
        for _ in range(3):
            dedupe(index, ids, 128, outcome=out)
        assert 0 < index.champions_loaded <= 2 * out.segments
        assert index.stats.disk_probes == index.champions_loaded
        assert index.stats.disk_bytes > 0

    def test_fifo_hook_eviction(self):
        # One hook (id 0 mod 4) recurs in more sealed segments than a
        # hook remembers: the oldest mapping falls out first.
        index = SparseShardIndex(segment_chunks=2, sample_bits=2,
                                 max_champions=64)
        hook, rounds = fp_of(4), MAX_SEGMENTS_PER_HOOK + 3
        for r in range(rounds):
            index.insert(IndexEntry(hook, r, 0, 1))
            index.insert(IndexEntry(fp_of(4 * r + 1), r, 1, 1))  # seals
        index.begin_batch([hook])
        assert index.champions_loaded == MAX_SEGMENTS_PER_HOOK
        # Companions of the evicted (oldest) segments are unreachable,
        # the newest ones load with their champion.
        assert index.lookup(fp_of(1)) is None
        assert index.lookup(fp_of(4 * (rounds - 1) + 1)) is not None
        # The hook itself answers from RAM with its newest version.
        assert index.lookup(hook).container_id == rounds - 1

    def test_dedup_ratio_property(self):
        index = SparseShardIndex(segment_chunks=64)
        out = dedupe(index, range(1, 65), 64)
        dedupe(index, range(1, 65), 64, outcome=out)
        assert out.dedup_ratio == pytest.approx(
            out.bytes_total / out.bytes_unique)
        assert out.dedup_ratio > 1.5

    @given(st.lists(st.integers(1, 2**40), min_size=1, max_size=300),
           st.integers(1, 64))
    @settings(max_examples=30)
    def test_property_conservation(self, ids, segment_chunks):
        index = SparseShardIndex(segment_chunks=segment_chunks,
                                 sample_bits=3)
        out = dedupe(index, ids, segment_chunks, length=100)
        assert out.chunks_total == len(ids)
        assert out.bytes_unique + out.bytes_deduped == 100 * len(ids)
        # Approximate, never magic: no more dedup than exact could.
        max_dupes = len(ids) - len(set(ids))
        assert out.chunks_deduped <= max_dupes
        stats = index.stats
        assert stats.memory_hits <= stats.hits <= stats.lookups


class TestReinsertAcrossSeal:
    """Regression: ``insert`` only checked the open segment, so the
    engine's refcount re-insert of a sealed fingerprint was counted as
    a new entry and listed twice."""

    def test_len_and_entries_are_distinct_fingerprints(self):
        index = SparseShardIndex(segment_chunks=2)
        a = IndexEntry(fp_of(1), 0, 0, 10)
        b = IndexEntry(fp_of(2), 0, 10, 10)
        index.insert(a)
        index.insert(b)              # seals {a, b}
        index.insert(a.bumped())     # the dedup-hit refcount update
        assert len(index) == 2
        listed = sorted(index.entries(), key=lambda e: e.fingerprint)
        assert listed == [a.bumped(), b]   # newest version, once

    def test_champion_load_prefers_the_newest_copy(self):
        # Chunk 1 is no hook (hooks are ids = 0 mod 4), so its answer
        # comes from the loaded champions, both of which hold a copy.
        index = SparseShardIndex(segment_chunks=2, sample_bits=2)
        a = IndexEntry(fp_of(1), 0, 0, 10)
        index.insert(a)
        index.insert(IndexEntry(fp_of(4), 0, 10, 10))    # seals segment 0
        index.insert(a.bumped())
        index.insert(IndexEntry(fp_of(8), 0, 20, 10))    # seals segment 1
        index.begin_batch([fp_of(4), fp_of(8)])
        assert index.champions_loaded == 2
        assert index.lookup(fp_of(1)) == a.bumped()
