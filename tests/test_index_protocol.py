"""Protocol conformance: every ``ChunkIndex`` is a map *and* one tier of
a declared index stack.

One suite, parametrised over every implementation, checks the contract
the backup engine and the fleet directory rely on: insert / lookup /
re-insert / ``entries`` semantics, ``len`` == distinct fingerprints,
the ``IndexStats`` invariants, and the stack hooks (``backing``,
``begin_batch``, ``discard``, ``tiers``, ``stack_stats``).
"""

import hashlib

import pytest

from repro.fleet import FleetIndex, GlobalDedupDirectory
from repro.index import (
    ChunkIndex,
    DiskIndex,
    IndexEntry,
    IndexStats,
    LocalityCache,
    MemoryIndex,
    SparseShardIndex,
)


def fp(i: int) -> bytes:
    return hashlib.sha1(f"chunk-{i}".encode()).digest()


def entry(i: int) -> IndexEntry:
    return IndexEntry(fingerprint=fp(i), container_id=i, offset=i * 10,
                      length=64, refcount=1)


def _disk(tmp_path):
    return DiskIndex(tmp_path / "disk", memtable_limit=4)


FACTORIES = {
    "memory": lambda tmp_path: MemoryIndex(),
    "disk": _disk,
    "locality-over-memory":
        lambda tmp_path: LocalityCache(MemoryIndex(), capacity=3),
    "locality-over-disk":
        lambda tmp_path: LocalityCache(_disk(tmp_path), capacity=3),
    # Every segment is announced before it is probed, and the champion
    # budget covers them all, so the approximate index answers exactly.
    "sparse-announced":
        lambda tmp_path: SparseShardIndex(segment_chunks=8, sample_bits=1,
                                          max_champions=64),
    "fleet":
        lambda tmp_path: FleetIndex(GlobalDedupDirectory(), "doc", rank=0),
}

N = 24


@pytest.fixture(params=sorted(FACTORIES))
def index(request, tmp_path):
    idx = FACTORIES[request.param](tmp_path)
    yield idx
    idx.close()


def _populate(index: ChunkIndex) -> None:
    for i in range(N):
        index.insert(entry(i))
    index.begin_batch([fp(i) for i in range(N + 8)], stream="s")


class TestChunkIndexProtocol:
    def test_insert_then_lookup(self, index):
        _populate(index)
        for i in range(N):
            assert index.lookup(fp(i)) == entry(i)
        assert index.lookup(fp(N + 1)) is None
        assert index.contains(fp(0)) and not index.contains(fp(N + 2))

    def test_reinsert_replaces_and_len_counts_distinct(self, index):
        _populate(index)
        bumped = {i: entry(i).bumped() for i in range(0, N, 3)}
        for e in bumped.values():       # the engine's dedup-hit update
            index.insert(e)
        index.begin_batch([fp(i) for i in range(N)])
        for i in range(N):
            assert index.lookup(fp(i)) == bumped.get(i, entry(i))
        assert len(index) == N
        listed = sorted(index.entries(), key=lambda e: e.container_id)
        assert listed == [bumped.get(i, entry(i)) for i in range(N)]

    def test_stats_invariants_and_generation(self, index):
        _populate(index)
        generation = index.generation
        for i in range(0, N + 8):
            index.lookup(fp(i))
        stats = index.stats
        assert stats.memory_hits <= stats.hits <= stats.lookups
        assert (stats.lookups, stats.hits, stats.inserts) == (N + 8, N, N)
        assert index.generation == generation   # lookups never mutate
        index.insert(entry(0).bumped())
        assert index.generation == generation + 1

    def test_empty_index(self, index):
        index.begin_batch([])
        assert len(index) == 0 and list(index.entries()) == []
        assert index.lookup(fp(1)) is None
        assert index.stats.hits == 0

    def test_stack_is_declared(self, index):
        tiers = list(index.tiers())
        assert tiers[0] is index
        assert tiers[-1].backing is None            # a leaf ends it
        for upper, lower in zip(tiers, tiers[1:]):
            assert upper.backing is lower
        assert all(isinstance(t, ChunkIndex) for t in tiers)

    def test_stack_stats_is_the_hand_merge(self, index):
        _populate(index)
        for i in range(N + 8):
            index.lookup(fp(i))
        tiers = list(index.tiers())
        want = IndexStats(
            lookups=index.stats.lookups, hits=index.stats.hits,
            inserts=max(t.stats.inserts for t in tiers),
            memory_hits=sum(t.stats.memory_hits for t in tiers),
            disk_probes=sum(t.stats.disk_probes for t in tiers),
            disk_bytes=sum(t.stats.disk_bytes for t in tiers))
        assert index.stack_stats() == want

    def test_discard_never_raises_and_keeps_other_entries(self, index):
        _populate(index)
        index.discard(fp(0))
        index.discard(fp(N + 5))    # absent: still fine
        index.begin_batch([fp(1)])
        assert index.lookup(fp(1)) == entry(1)


class TestStackComposition:
    def test_cache_over_disk_stack(self, tmp_path):
        """The cache → disk stack a fleet shard declares: disk IO
        surfaces through the front, memory hits add up across tiers,
        lookups are the top tier's."""
        disk = DiskIndex(tmp_path / "d", memtable_limit=2,
                         bloom_fp_rate=None)
        stack = LocalityCache(disk, capacity=1)
        for i in range(8):
            disk.insert(entry(i))       # bulk load below the front
        for i in range(8):
            assert stack.lookup(fp(i)) == entry(i)
        assert stack.lookup(fp(7)) == entry(7)      # cache hit
        merged = stack.stack_stats()
        assert disk.stats.disk_probes > 0
        assert merged.disk_probes == disk.stats.disk_probes
        assert merged.disk_bytes == disk.stats.disk_bytes
        assert merged.memory_hits == \
            stack.stats.memory_hits + disk.stats.memory_hits
        assert (merged.lookups, merged.hits) == (9, 9)
        assert merged.inserts == 8 and stack.stats.inserts == 0

    def test_hooks_forward_down_the_stack(self):
        seen = []

        class Leaf(MemoryIndex):
            def begin_batch(self, fingerprints, stream=None):
                seen.append((list(fingerprints), stream))

        leaf = Leaf()
        stack = LocalityCache(LocalityCache(leaf, capacity=2), capacity=2)
        leaf.insert(entry(1))
        stack.begin_batch([fp(1)], stream=5)
        assert seen == [([fp(1)], 5)]
        assert stack.locality_scores() == {}    # nothing probed yet
        stack.lookup(fp(1))
        assert list(stack.locality_scores()) == ["5"]
        assert MemoryIndex().locality_scores() == {}
        stack.discard(fp(1))                    # reaches the leaf
        assert len(leaf) == 0
