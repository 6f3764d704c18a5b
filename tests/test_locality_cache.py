"""Property and unit tests for the HPDedup-style locality cache.

The cache's contract has three load-bearing pieces the fleet
directory relies on:

* **eviction order respects locality scores** — when space runs out,
  the victim comes from the stream with the lowest effective locality
  (EWMA of hit run lengths, or the live run if higher);
* **hit accounting sums across levels** — a lookup is served by
  exactly one level, so cache hits + backing lookups = total lookups
  and the merged ``IndexStats`` invariants hold;
* **correctness is cache-independent** — whatever the probe order or
  capacity, every lookup returns exactly what the backing index holds
  (the cache can change *cost*, never *answers*).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import IndexEntry, LocalityCache, MemoryIndex
from repro.index.locality import DEFAULT_STREAM


def fp(i: int) -> bytes:
    return hashlib.sha1(str(i).encode()).digest()


def entry(i: int) -> IndexEntry:
    return IndexEntry(fingerprint=fp(i), container_id=i, offset=0,
                      length=64, refcount=1)


def make(capacity=4, alpha=0.25, preload=()):
    backing = MemoryIndex()
    for i in preload:
        backing.insert(entry(i))
    return LocalityCache(backing, capacity=capacity, alpha=alpha)


class TestLocalityCacheBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            make(capacity=0)
        with pytest.raises(ValueError):
            LocalityCache(MemoryIndex(), capacity=4, alpha=0.0)
        with pytest.raises(ValueError):
            LocalityCache(MemoryIndex(), capacity=4, alpha=1.5)

    def test_miss_falls_through_and_caches(self):
        c = make(preload=[1])
        assert c.lookup(fp(1)) == entry(1)
        assert (c.cache_hits, c.cache_misses) == (0, 1)
        assert c.lookup(fp(1)) == entry(1)
        assert (c.cache_hits, c.cache_misses) == (1, 1)
        assert c.backing.stats.lookups == 1  # repeat never hit the backing

    def test_negative_lookups_not_cached(self):
        c = make()
        assert c.lookup(fp(9)) is None
        assert c.lookup(fp(9)) is None
        assert c.backing.stats.lookups == 2

    def test_default_stream_before_begin_stream(self):
        c = make(preload=[1])
        c.lookup(fp(1))
        assert DEFAULT_STREAM in c.locality_scores()

    def test_write_through(self):
        c = make()
        c.insert(entry(5))
        assert c.backing.lookup(fp(5)) == entry(5)
        assert len(c) == 1

    def test_hit_ratio(self):
        c = make(preload=[1])
        assert c.hit_ratio == 0.0
        c.lookup(fp(1))
        c.lookup(fp(1))
        assert c.hit_ratio == 0.5


class TestEvictionOrder:
    def test_low_locality_stream_evicted_first(self):
        # "hot" replays a two-fingerprint working set (long hit runs);
        # "cold" scans fingerprints it never revisits (runs of zero).
        c = make(capacity=4, preload=range(20))
        c.begin_batch((), stream="hot")
        for _ in range(6):
            c.lookup(fp(0))
            c.lookup(fp(1))
        c.begin_batch((), stream="cold")
        for i in range(2, 12):
            c.lookup(fp(i))
        scores = c.locality_scores()
        assert scores["hot"] > scores["cold"]
        # The cold scan churned through the cache without ever evicting
        # the hot stream's working set.
        c.begin_batch((), stream="hot")
        before = c.backing.stats.lookups
        assert c.lookup(fp(0)) == entry(0)
        assert c.lookup(fp(1)) == entry(1)
        assert c.backing.stats.lookups == before

    def test_eviction_within_stream_is_oldest_first(self):
        c = make(capacity=2, preload=range(10))
        c.begin_batch((), stream="s")
        c.lookup(fp(0))
        c.lookup(fp(1))
        c.lookup(fp(2))  # capacity 2: evicts fp(0), the oldest
        assert fp(0) not in c._entries
        assert fp(1) in c._entries and fp(2) in c._entries
        assert c.evictions == 1

    def test_touch_reassigns_ownership(self):
        c = make(capacity=4, preload=range(4))
        c.begin_batch((), stream="a")
        c.lookup(fp(0))
        c.begin_batch((), stream="b")
        c.lookup(fp(0))  # b touches a's entry: ownership moves
        assert c._owner[fp(0)] == "b"
        assert fp(0) not in c._lru["a"]

    def test_mid_burst_stream_protected_by_live_run(self):
        # A stream with no history but a hit run in progress must not
        # be the eviction victim over a stream with zero locality.
        c = make(capacity=3, preload=range(10))
        c.begin_batch((), stream="burst")
        c.lookup(fp(0))
        c.lookup(fp(0))
        c.lookup(fp(0))  # live run = 2 (score 2.0, EWMA still 0)
        c.begin_batch((), stream="cold")
        c.lookup(fp(1))
        c.lookup(fp(2))
        c.lookup(fp(3))  # forces evictions
        assert fp(0) in c._entries  # burst survived


FPS = st.integers(0, 15)
STREAMS = st.sampled_from(["a", "b", "c"])
OPS = st.lists(st.tuples(STREAMS, FPS), max_size=120)


class TestLocalityCacheProperties:
    @given(OPS, st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_answers_match_backing(self, ops, capacity):
        """The cache changes cost, never answers."""
        backing = MemoryIndex()
        for i in range(0, 16, 2):  # even fingerprints exist
            backing.insert(entry(i))
        c = LocalityCache(backing, capacity=capacity)
        for stream, i in ops:
            c.begin_batch((), stream=stream)
            expected = entry(i) if i % 2 == 0 else None
            assert c.lookup(fp(i)) == expected

    @given(OPS, st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_hit_accounting_sums_across_levels(self, ops, capacity):
        c = make(capacity=capacity, preload=range(0, 16, 2))
        for stream, i in ops:
            c.begin_batch((), stream=stream)
            c.lookup(fp(i))
        # Every lookup is served by exactly one level.
        assert c.cache_hits + c.cache_misses == len(ops)
        assert c.backing.stats.lookups == c.cache_misses
        total_hits = sum(1 for _s, i in ops if i % 2 == 0)
        assert c.cache_hits + c.backing.stats.hits == total_hits
        s = c.stats
        assert s.memory_hits == c.cache_hits
        assert s.memory_hits <= s.hits <= s.lookups
        assert s.hits == total_hits

    @given(OPS, st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded_and_structures_agree(self, ops,
                                                          capacity):
        c = make(capacity=capacity, preload=range(0, 16, 2))
        for stream, i in ops:
            c.begin_batch((), stream=stream)
            c.lookup(fp(i))
        assert len(c._entries) <= capacity
        assert set(c._entries) == set(c._owner)
        per_stream = [fprint for lru in c._lru.values() for fprint in lru]
        assert sorted(per_stream) == sorted(c._entries)
        for stream, lru in c._lru.items():
            assert all(c._owner[fprint] == stream for fprint in lru)

    @given(OPS)
    @settings(max_examples=40, deadline=None)
    def test_eviction_victim_has_minimal_score(self, ops):
        """Whenever an eviction fires, the victim's stream score is the
        minimum over all streams that still hold cached entries."""
        c = make(capacity=2, preload=range(0, 16, 2))
        original = c._evict_one

        def checked():
            populated = {s: c._score(s)
                         for s, lru in c._lru.items() if lru}
            victim = min(populated, key=lambda s: (populated[s], s))
            before = set(c._lru[victim])
            original()
            evicted = before - set(c._lru[victim])
            assert len(evicted) == 1
            assert c._owner.get(next(iter(evicted))) is None

        c._evict_one = checked
        for stream, i in ops:
            c.begin_batch((), stream=stream)
            c.lookup(fp(i))
