"""Tests for the chunk-index substrate: entries, memory, disk, cache,
Bloom filter, and the application-aware composite."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index import (
    AppAwareIndex,
    BloomFilter,
    DiskIndex,
    IndexEntry,
    LocalityCache,
    MemoryIndex,
)


def fp(i: int, size: int = 20) -> bytes:
    """Deterministic fingerprint for test item ``i``."""
    return hashlib.sha1(str(i).encode()).digest()[:size]


def entry(i: int, **kw) -> IndexEntry:
    return IndexEntry(fingerprint=fp(i), container_id=kw.get("cid", i // 10),
                      offset=kw.get("offset", i * 100),
                      length=kw.get("length", 100),
                      refcount=kw.get("refcount", 1))


class TestIndexEntry:
    def test_pack_unpack_roundtrip(self):
        e = entry(42)
        assert IndexEntry.unpack(e.pack()) == e

    def test_pack_unpack_short_fingerprint(self):
        e = IndexEntry(fingerprint=b"\x01" * 12, container_id=7, offset=3,
                       length=9, refcount=2)
        assert IndexEntry.unpack(e.pack()) == e

    def test_record_size_fixed(self):
        assert len(entry(1).pack()) == IndexEntry.RECORD_SIZE

    def test_invalid_fingerprint_length(self):
        with pytest.raises(IndexError_):
            IndexEntry(fingerprint=b"", container_id=0, offset=0, length=0)
        with pytest.raises(IndexError_):
            IndexEntry(fingerprint=b"x" * 21, container_id=0, offset=0,
                       length=0)

    def test_negative_fields_rejected(self):
        with pytest.raises(IndexError_):
            IndexEntry(fingerprint=b"x", container_id=-1, offset=0, length=0)

    def test_bumped(self):
        assert entry(1).bumped(3).refcount == 4

    @given(st.binary(min_size=1, max_size=20), st.integers(0, 2**40),
           st.integers(0, 2**40), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_property_roundtrip(self, fingerprint, cid, off, length):
        e = IndexEntry(fingerprint, cid, off, length)
        assert IndexEntry.unpack(e.pack()) == e


class TestMemoryIndex:
    def test_miss_then_hit(self):
        idx = MemoryIndex()
        assert idx.lookup(fp(1)) is None
        idx.insert(entry(1))
        assert idx.lookup(fp(1)) == entry(1)

    def test_replace(self):
        idx = MemoryIndex()
        idx.insert(entry(1))
        idx.insert(entry(1, refcount=5))
        assert idx.lookup(fp(1)).refcount == 5
        assert len(idx) == 1

    def test_stats(self):
        idx = MemoryIndex()
        idx.insert(entry(1))
        idx.lookup(fp(1))
        idx.lookup(fp(2))
        assert idx.stats.lookups == 2
        assert idx.stats.hits == 1
        assert idx.stats.inserts == 1
        # The miss is not a memory "hit" — only the served lookup is.
        assert idx.stats.memory_hits == 1

    def test_generation_bumps_on_every_insert(self):
        idx = MemoryIndex()
        assert idx.generation == 0
        idx.insert(entry(1))
        idx.insert(entry(1, refcount=5))  # same key: still a mutation
        assert idx.generation == 2

    def test_entries_iteration(self):
        idx = MemoryIndex()
        for i in range(5):
            idx.insert(entry(i))
        assert {e.fingerprint for e in idx.entries()} == {fp(i)
                                                          for i in range(5)}


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(capacity=500, fp_rate=0.01)
        items = [fp(i) for i in range(500)]
        for item in items:
            bf.add(item)
        assert all(bf.might_contain(item) for item in items)

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter(capacity=1000, fp_rate=0.01)
        for i in range(1000):
            bf.add(fp(i))
        fps = sum(bf.might_contain(fp(i)) for i in range(1000, 6000))
        assert fps / 5000 < 0.05  # generous bound over nominal 1%

    def test_serialisation_roundtrip(self):
        bf = BloomFilter(capacity=100)
        for i in range(100):
            bf.add(fp(i))
        clone = BloomFilter.from_bytes(bf.to_bytes())
        assert clone.num_bits == bf.num_bits
        assert all(clone.might_contain(fp(i)) for i in range(100))
        assert clone.count == 100

    def test_expected_fp_rate_grows(self):
        bf = BloomFilter(capacity=100, fp_rate=0.01)
        assert bf.expected_fp_rate() == 0.0
        for i in range(100):
            bf.add(fp(i))
        assert 0.0 < bf.expected_fp_rate() < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, fp_rate=1.5)

    # -- regression: round-trip used to lose fp_rate (came back 0.0,
    # -- breaking any resized clone) and accepted truncated blobs ------
    def test_roundtrip_preserves_fp_rate(self):
        bf = BloomFilter(capacity=64, fp_rate=0.003)
        clone = BloomFilter.from_bytes(bf.to_bytes())
        assert clone.fp_rate == 0.003
        # The restored rate must satisfy the constructor invariant so a
        # grow/rebuild cycle can reuse it directly.
        BloomFilter(capacity=clone.capacity * 2, fp_rate=clone.fp_rate)

    def test_from_bytes_rejects_garbage(self):
        bf = BloomFilter(capacity=32)
        blob = bf.to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"")                  # empty
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(blob[:10])            # short header
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(blob[:-1])            # short bit array
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(blob + b"x")          # trailing junk
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"NOPE" + blob[4:])   # foreign magic

    @given(st.integers(1, 2000),
           st.floats(0.0005, 0.2),
           st.lists(st.binary(min_size=1, max_size=32), max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip_is_lossless(self, capacity, rate, items):
        bf = BloomFilter(capacity=capacity, fp_rate=rate)
        for item in items:
            bf.add(item)
        clone = BloomFilter.from_bytes(bf.to_bytes())
        assert (clone.capacity, clone.fp_rate, clone.num_bits,
                clone.num_hashes, clone.count) == \
            (bf.capacity, bf.fp_rate, bf.num_bits, bf.num_hashes, bf.count)
        assert clone.to_bytes() == bf.to_bytes()
        assert all(clone.might_contain(item) for item in items)

    @given(st.binary(max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_property_arbitrary_bytes_never_return_broken_filter(self, blob):
        # Anything from_bytes accepts must behave like a real filter;
        # everything else must raise ValueError, never crash or return
        # a filter with out-of-invariant fields.
        try:
            bf = BloomFilter.from_bytes(blob)
        except ValueError:
            return
        assert bf.capacity >= 1 and 0.0 < bf.fp_rate < 1.0
        bf.add(b"probe")
        assert bf.might_contain(b"probe")


class TestDiskIndex:
    def test_basic_roundtrip(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=100)
        idx.insert(entry(1))
        assert idx.lookup(fp(1)) == entry(1)

    def test_flush_and_reopen(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=1000)
        for i in range(50):
            idx.insert(entry(i))
        idx.close()
        reopened = DiskIndex(tmp_path)
        for i in range(50):
            assert reopened.lookup(fp(i)) == entry(i)
        assert len(reopened) == 50

    def test_memtable_spill_creates_runs(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=10)
        for i in range(35):
            idx.insert(entry(i))
        assert len(list(tmp_path.glob("run-*.idx"))) >= 3
        for i in range(35):
            assert idx.lookup(fp(i)) is not None

    def test_disk_probes_accounted(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=10)
        for i in range(20):
            idx.insert(entry(i))
        idx.flush()
        before = idx.stats.disk_probes
        assert idx.lookup(fp(0)) is not None
        assert idx.stats.disk_probes > before

    def test_bloom_avoids_probes_on_miss(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=10)
        for i in range(20):
            idx.insert(entry(i))
        idx.flush()
        before = idx.stats.disk_probes
        misses = sum(idx.lookup(fp(i)) is None for i in range(10_000, 10_200))
        assert misses == 200
        # Bloom filters should have rejected nearly every run probe.
        assert idx.stats.disk_probes - before < 200

    def test_newest_version_wins(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=5)
        for i in range(10):
            idx.insert(entry(i))
        idx.flush()
        idx.insert(entry(3, refcount=9))
        idx.flush()
        assert idx.lookup(fp(3)).refcount == 9

    def test_compaction_preserves_content(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=5, max_runs=3)
        for i in range(60):
            idx.insert(entry(i))
        idx.flush()
        assert len(list(tmp_path.glob("run-*.idx"))) <= 4
        for i in range(60):
            assert idx.lookup(fp(i)) == entry(i)
        assert len(idx) == 60

    def test_entries_shadowing(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=5)
        for i in range(10):
            idx.insert(entry(i))
        idx.flush()
        idx.insert(entry(2, refcount=7))
        found = {e.fingerprint: e for e in idx.entries()}
        assert found[fp(2)].refcount == 7
        assert len(found) == 10

    def test_validation(self, tmp_path):
        with pytest.raises(IndexError_):
            DiskIndex(tmp_path, memtable_limit=0)

    def test_miss_is_not_a_memory_hit(self, tmp_path):
        # Regression: a negative lookup on a run-less index used to be
        # counted as a memory hit, inflating the RAM-residency ratio.
        idx = DiskIndex(tmp_path, memtable_limit=100)
        assert idx.lookup(fp(1)) is None
        assert idx.stats.memory_hits == 0
        assert idx.stats.hits == 0
        # The same negative lookup against on-disk runs is no hit either.
        for i in range(20):
            idx.insert(entry(i))
        idx.flush()
        before = idx.stats.memory_hits
        assert idx.lookup(fp(10_000)) is None
        assert idx.stats.memory_hits == before

    @pytest.mark.parametrize("memtable_limit", [4, 1000])
    def test_hit_miss_invariants(self, tmp_path, memtable_limit):
        # memory_hits <= hits <= lookups must hold through any mix of
        # memtable hits, run probes, Bloom negatives and plain misses.
        idx = DiskIndex(tmp_path, memtable_limit=memtable_limit)
        for i in range(30):
            idx.insert(entry(i))
        hits = sum(idx.lookup(fp(i)) is not None for i in range(60))
        assert hits == 30
        stats = idx.stats
        assert stats.memory_hits <= stats.hits <= stats.lookups
        assert stats.hits == 30
        assert stats.lookups == 60

    def test_probe_reuses_cached_handle(self, tmp_path, monkeypatch):
        # Perf regression guard: run probes must not pay an open(2) per
        # lookup — the handle opens once per run and is reused.
        idx = DiskIndex(tmp_path, memtable_limit=5, bloom_fp_rate=0.5)
        for i in range(20):
            idx.insert(entry(i))
        idx.flush()
        import builtins
        opens = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opens.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        for _ in range(3):
            for i in range(20):
                assert idx.lookup(fp(i)) is not None
        run_opens = [f for f in opens if f.endswith(".idx")]
        assert len(run_opens) <= len(list(tmp_path.glob("run-*.idx")))

    def test_close_releases_handles_and_reopens(self, tmp_path):
        idx = DiskIndex(tmp_path, memtable_limit=5)
        for i in range(12):
            idx.insert(entry(i))
        idx.flush()
        assert idx.lookup(fp(1)) is not None  # handles now open
        runs = list(idx._runs)
        assert any(run._fh is not None for run in runs)
        idx.close()
        assert all(run._fh is None for run in runs)
        reopened = DiskIndex(tmp_path)
        assert reopened.lookup(fp(1)) == entry(1)
        reopened.close()


class TestLRUCache:
    """The shard cache front probed by a single stream is a plain LRU
    (the ablation that deleted the separate ``LRUCache`` class: same
    answers, counters and eviction order)."""

    def test_hit_after_insert(self, tmp_path):
        cache = LocalityCache(MemoryIndex(), capacity=10)
        cache.insert(entry(1))
        assert cache.lookup(fp(1)) == entry(1)
        assert cache.cache_hits == 1

    def test_eviction(self):
        cache = LocalityCache(MemoryIndex(), capacity=3)
        for i in range(5):
            cache.insert(entry(i))
        # 0 and 1 evicted from cache but present in backing.
        assert cache.lookup(fp(0)) == entry(0)
        assert cache.cache_misses >= 1

    def test_eviction_order_is_least_recently_used(self):
        backing = MemoryIndex()
        cache = LocalityCache(backing, capacity=3)
        for i in range(3):
            cache.insert(entry(i))
        cache.lookup(fp(0))        # 0 is now the most recent
        cache.insert(entry(3))     # evicts 1, the least recent
        before = backing.stats.lookups
        for i in (0, 2, 3):
            assert cache.lookup(fp(i)) == entry(i)
        assert backing.stats.lookups == before   # all still cached
        assert cache.lookup(fp(1)) == entry(1)
        assert backing.stats.lookups == before + 1

    def test_miss_populates_cache(self):
        backing = MemoryIndex()
        backing.insert(entry(7))
        cache = LocalityCache(backing, capacity=4)
        cache.lookup(fp(7))
        backing_lookups = backing.stats.lookups
        cache.lookup(fp(7))
        assert backing.stats.lookups == backing_lookups  # served from cache

    def test_hit_ratio(self):
        cache = LocalityCache(MemoryIndex(), capacity=4)
        cache.insert(entry(1))
        cache.lookup(fp(1))
        cache.lookup(fp(2))
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LocalityCache(MemoryIndex(), capacity=0)


class TestAppAwareIndex:
    def test_per_app_isolation(self):
        aa = AppAwareIndex()
        aa.insert("mp3", entry(1))
        assert aa.lookup("mp3", fp(1)) is not None
        # Same fingerprint under a different app label: independent index.
        assert aa.lookup("doc", fp(1)) is None

    def test_sizes_and_len(self):
        aa = AppAwareIndex()
        for i in range(4):
            aa.insert("mp3", entry(i))
        for i in range(10, 13):
            aa.insert("doc", entry(i))
        assert aa.sizes() == {"mp3": 4, "doc": 3}
        assert len(aa) == 7
        assert aa.apps == ["doc", "mp3"]

    def test_entries_tagged_with_app(self):
        aa = AppAwareIndex()
        aa.insert("txt", entry(5))
        assert list(aa.entries()) == [("txt", entry(5))]

    def test_combined_stats(self):
        aa = AppAwareIndex()
        aa.insert("a", entry(1))
        aa.lookup("a", fp(1))
        aa.lookup("b", fp(2))
        stats = aa.combined_stats()
        assert stats.lookups == 2 and stats.hits == 1 and stats.inserts == 1

    def test_reset_stats(self):
        aa = AppAwareIndex()
        aa.insert("a", entry(1))
        aa.reset_stats()
        assert aa.combined_stats().lookups == 0

    def test_begin_batch_routes_to_one_subindex(self):
        announced = []

        class Recording(MemoryIndex):
            def begin_batch(self, fingerprints, stream=None):
                announced.append(list(fingerprints))

        aa = AppAwareIndex(factory=lambda app: Recording())
        aa.subindex("doc")
        aa.begin_batch("mp3", [fp(1), fp(2)])
        assert announced == [[fp(1), fp(2)]]
        # The inherited hook on a leaf is a no-op.
        AppAwareIndex().begin_batch("mp3", [fp(1)])

    def test_removed_parallel_probe_is_gone(self):
        with pytest.raises(TypeError, match="max_workers"):
            AppAwareIndex(max_workers=3)
        assert not hasattr(AppAwareIndex, "lookup_batch")

    def test_custom_factory(self, tmp_path):
        aa = AppAwareIndex(
            factory=lambda app: DiskIndex(tmp_path / app, memtable_limit=4))
        for i in range(10):
            aa.insert("vmdk", entry(i))
        aa.flush()
        assert (tmp_path / "vmdk").exists()
        assert aa.lookup("vmdk", fp(3)) == entry(3)
        aa.close()

    def test_approximate_bytes_grows(self):
        aa = AppAwareIndex()
        base = aa.approximate_bytes()
        aa.insert("a", entry(1))
        assert aa.approximate_bytes() > base
