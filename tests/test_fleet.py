"""Fleet subsystem tests: global directory, fleet index, service runs.

The determinism suite is the load-bearing part: a fleet run's results
(session stats, shard accounting, WAN time, bills) must be identical
for a fixed seed no matter how many worker threads execute a wave —
``max_workers`` is a performance knob, never a results knob.
"""

import hashlib
from dataclasses import asdict

import pytest

from repro.core.restore import RestoreClient
from repro.errors import SimulationError, WorkloadError
from repro.fleet import (
    FleetIndex,
    FleetService,
    GlobalDedupDirectory,
    generated_fleet_sources,
    synthetic_fleet_sources,
)
from repro.core.naming import CONTAINER_ID_STRIDE
from repro.index import IndexEntry, LocalityCache


def fp(i: int) -> bytes:
    return hashlib.sha1(str(i).encode()).digest()


def entry(i: int, length: int = 64) -> IndexEntry:
    return IndexEntry(fingerprint=fp(i), container_id=i, offset=0,
                      length=length, refcount=1)


class TestGlobalDedupDirectory:
    def test_sharding_by_app_and_ring(self):
        d = GlobalDedupDirectory(shards_per_app=4)
        a = d.shard_for("doc", fp(1))
        assert a is d.shard_for("doc", fp(1))
        assert a is not d.shard_for("mp3", fp(1))  # apps never share
        assert 0 <= a.bucket < 4

    def test_publish_invisible_until_commit(self):
        d = GlobalDedupDirectory()
        d.publish_batch("doc", [entry(1)], rank=0)
        assert d.lookup("doc", fp(1)) is None
        assert d.commit_epoch() == 1
        assert d.lookup("doc", fp(1)) == entry(1)
        assert d.epoch == 1

    def test_lookup_batch_alignment_and_batching(self):
        d = GlobalDedupDirectory(shards_per_app=2)
        d.publish_batch("doc", [entry(i) for i in range(6)], rank=0)
        d.commit_epoch()
        fps = [fp(5), fp(999), fp(0), fp(3)]
        out = d.lookup_batch("doc", fps)
        assert out == [entry(5), None, entry(0), entry(3)]
        # The whole batch cost at most one probe round per shard.
        assert sum(s.batches for s in d.shards()) <= 2
        assert sum(s.probes for s in d.shards()) == 4
        assert sum(s.hits for s in d.shards()) == 3

    def test_lowest_rank_wins_conflicts(self):
        d = GlobalDedupDirectory()
        late = IndexEntry(fingerprint=fp(1), container_id=777, offset=0,
                          length=64, refcount=1)
        d.publish_batch("doc", [late], rank=5)
        d.publish_batch("doc", [entry(1)], rank=2)  # lower rank, later
        d.commit_epoch()
        assert d.lookup("doc", fp(1)).container_id == 1

    def test_committed_fingerprint_not_replaced(self):
        d = GlobalDedupDirectory()
        d.publish_batch("doc", [entry(1)], rank=3)
        assert d.commit_epoch() == 1
        other = IndexEntry(fingerprint=fp(1), container_id=42, offset=0,
                           length=64, refcount=1)
        d.publish_batch("doc", [other], rank=0)
        assert d.commit_epoch() == 0  # location already settled
        assert d.lookup("doc", fp(1)).container_id == 1

    def test_commit_does_not_pollute_probe_stats(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        d.publish_batch("doc", [entry(i) for i in range(8)], rank=0)
        d.commit_epoch()
        shard = d.shards()[0]
        assert shard.probes == 0 and shard.batches == 0
        assert shard.index.stack_stats().lookups == 0  # no index lookups
        assert len(shard) == 8

    def test_stats_rows_and_len(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        d.publish_batch("doc", [entry(1), entry(1)], rank=0)
        d.commit_epoch()
        d.lookup("doc", fp(1))
        d.lookup("doc", fp(2))
        (row,) = d.stats_rows()
        assert row["shard"] == "doc/0"
        assert row["entries"] == 1 and len(d) == 1
        assert row["publishes"] == 2 and row["accepted"] == 1
        assert row["probes"] == 2 and row["hits"] == 1

    def test_cache_capacity_fronts_shards_with_lru(self):
        # One probing stream: the front behaves as a plain LRU — the
        # repeat is served from the cache, never reaching the backing.
        d = GlobalDedupDirectory(shards_per_app=1, cache_capacity=16)
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        (shard,) = d.shards()
        assert isinstance(shard.index, LocalityCache)
        assert shard.index.capacity == 16
        assert d.lookup("doc", fp(1)) == entry(1)
        assert d.lookup("doc", fp(1)) == entry(1)
        assert shard.index.cache_hits == 1
        assert shard.index.backing.stats.lookups == 1

    def test_locality_capacity_fronts_shards(self):
        d = GlobalDedupDirectory(shards_per_app=1, cache_capacity=16)
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        assert d.probe_batch("doc", [fp(1)], stream=7)[0] == [entry(1)]
        (row,) = d.stats_rows()
        # Scores are visible once a stream probed, keyed by its tag.
        assert list(row["locality"]) == ["7"]
        # No cache front, no scores.
        plain = GlobalDedupDirectory(shards_per_app=1)
        plain.publish_batch("doc", [entry(1)], rank=0)
        plain.commit_epoch()
        assert plain.stats_rows()[0]["locality"] == {}

    def test_cache_fronts_are_mutually_exclusive(self):
        # There is one cache front; the second knob is gone by name.
        with pytest.raises(TypeError, match="locality_capacity"):
            GlobalDedupDirectory(cache_capacity=4, locality_capacity=4)

    @pytest.mark.parametrize("kwarg", ["locality_capacity",
                                       "filter_fp_rate", "ring_vnodes"])
    def test_removed_directory_knobs_rejected(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            GlobalDedupDirectory(**{kwarg: 1})

    # -- regression: single-byte bucketing capped shards at 256 --------
    @pytest.mark.parametrize("shards", [6, 300])
    def test_ring_occupancy_near_uniform(self, shards):
        d = GlobalDedupDirectory(shards_per_app=shards)
        n = 30_000
        d.publish_batch("doc", [entry(i) for i in range(n)], rank=0)
        d.commit_epoch()
        counts = {b: 0 for b in range(shards)}
        for shard in d.shards():
            counts[shard.bucket] = len(shard)
        mean = n / shards
        # Every configured bucket is reachable (the old fingerprint[0]
        # router left shards 256.. permanently empty) and load is
        # near-uniform (non-divisors of 256 used to skew it).
        assert min(counts.values()) > 0.4 * mean
        assert max(counts.values()) < 2.0 * mean

    # -- regression: read path must never allocate shards --------------
    def test_lookup_never_allocates_shards(self):
        d = GlobalDedupDirectory(shards_per_app=4)
        out = d.lookup_batch("doc", [fp(i) for i in range(64)])
        assert out == [None] * 64
        assert d.shards() == []          # no shard map mutation
        assert d.absent_probes == 64
        # A published app allocates only the arcs publishes touched;
        # probing a *different* app afterwards still allocates nothing.
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        before = [s.key for s in d.shards()]
        assert d.lookup("mp3", fp(1)) is None
        assert d.lookup_batch("mp3", [fp(2), fp(3)]) == [None, None]
        assert [s.key for s in d.shards()] == before

    # -- regression: stats must merge the whole index stack ------------
    def test_stats_walk_three_deep_chain(self, tmp_path):
        from repro.index.disk import DiskIndex

        def factory(app, bucket):
            # cache -> cache -> disk: a declared three-tier stack.
            disk = DiskIndex(tmp_path / f"{app}-{bucket}",
                             memtable_limit=2, bloom_fp_rate=None)
            return LocalityCache(LocalityCache(disk, capacity=1),
                                 capacity=1)

        d = GlobalDedupDirectory(shards_per_app=1, index_factory=factory)
        d.publish_batch("doc", [entry(i) for i in range(8)], rank=0)
        d.commit_epoch()
        for i in range(8):
            assert d.lookup("doc", fp(i)) == entry(i)
        shard = d.shards()[0]
        stats = shard.index.stack_stats()
        top, middle, disk = shard.index.tiers()
        deep = disk.stats
        assert deep.disk_probes > 0
        # Disk IO surfaces through both cache levels ...
        assert stats.disk_probes == deep.disk_probes
        assert stats.disk_bytes == deep.disk_bytes
        # ... and memory hits accumulate across every level.
        chain_memory = (top.stats.memory_hits + middle.stats.memory_hits
                        + deep.memory_hits)
        assert stats.memory_hits == chain_memory
        assert stats.lookups == top.stats.lookups
        # Commits bulk-loaded the leaf, bypassing both fronts.
        assert stats.inserts == deep.inserts == 8
        assert top.stats.inserts == 0
        (row,) = d.stats_rows()
        assert row["disk_probes"] == deep.disk_probes

    # -- bloom filter front --------------------------------------------
    def test_filter_front_absorbs_cold_misses(self):
        d = GlobalDedupDirectory(shards_per_app=1, filter_capacity=64)
        d.publish_batch("doc", [entry(i) for i in range(8)], rank=0)
        d.commit_epoch()
        shard = d.shards()[0]
        baseline_batches = shard.batches
        cold = [fp(i) for i in range(1000, 1032)]
        out, absorbed = d.probe_batch("doc", cold)
        assert out == [None] * 32
        # Near-all cold probes are answered by the filter: no index
        # lookup, and a fully-absorbed group costs no batch seek.
        assert sum(absorbed) >= 30
        assert shard.filter_rejects >= 30
        assert shard.index.stats.lookups <= 2  # only bloom false positives
        assert shard.batches <= baseline_batches + 1
        # Committed fingerprints always pass the filter (no false
        # negatives): every hit still lands.
        hits, flags = d.probe_batch("doc", [fp(i) for i in range(8)])
        assert hits == [entry(i) for i in range(8)]
        assert not any(flags)

    def test_filter_grows_past_capacity(self):
        d = GlobalDedupDirectory(shards_per_app=1, filter_capacity=16)
        d.publish_batch("doc", [entry(i) for i in range(200)], rank=0)
        d.commit_epoch()
        shard = d.shards()[0]
        assert shard.bloom.capacity >= 200
        assert all(d.lookup("doc", fp(i)) == entry(i) for i in range(200))

    # -- consistent-hash rebalancing -----------------------------------
    def test_split_migrates_and_preserves_lookups(self):
        d = GlobalDedupDirectory(shards_per_app=2, filter_capacity=32,
                                 shard_split_entries=40)
        d.publish_batch("doc", [entry(i) for i in range(200)], rank=0)
        d.commit_epoch()
        # Several epochs of splits under sustained overload.
        for _ in range(4):
            d.commit_epoch()
        assert d.rebalances > 0
        assert d.migrated_entries > 0
        assert len({s.bucket for s in d.shards()}) > 2
        assert len(d) == 200  # nothing lost in migration
        # Every entry still routes to a shard that holds it.
        assert all(d.lookup("doc", fp(i)) == entry(i) for i in range(200))
        # Shards agree with the ring: each holds only its own arcs.
        ring = d._ring("doc")
        for shard in d.shards():
            for e in shard.committed_entries():
                assert ring.node_for(e.fingerprint) == shard.bucket


class TestFleetIndex:
    def test_local_before_remote(self):
        d = GlobalDedupDirectory()
        ix = FleetIndex(d, "doc", rank=0)
        ix.insert(entry(1))
        assert ix.lookup(fp(1)) == entry(1)
        assert ix.remote_probes == 0
        assert ix.stats.memory_hits == 1

    def test_remote_hit_adopts_entry(self):
        d = GlobalDedupDirectory()
        d.publish_batch("doc", [entry(7, length=100)], rank=0)
        d.commit_epoch()
        ix = FleetIndex(d, "doc", rank=1)
        assert ix.lookup(fp(7)) == entry(7, length=100)
        assert ix.remote_probes == 1 and ix.remote_hits == 1
        assert ix.adopted_bytes == 100
        # Adopted: the repeat is a pure local memory hit.
        assert ix.lookup(fp(7)) == entry(7, length=100)
        assert ix.remote_probes == 1
        assert ix.stats.memory_hits == 1

    def test_miss_memo_per_epoch(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        # Allocate the shard first: the memo covers misses that reached
        # a backing index (absent-shard misses are absorbed instead).
        d.publish_batch("doc", [entry(99)], rank=0)
        d.commit_epoch()
        ix = FleetIndex(d, "doc", rank=1)
        for _ in range(5):
            assert ix.lookup(fp(3)) is None
        assert ix.remote_probes == 1  # memoised within the epoch
        d.publish_batch("doc", [entry(3)], rank=0)
        d.commit_epoch()
        assert ix.lookup(fp(3)) == entry(3)  # memo invalidated by commit
        assert ix.remote_probes == 2

    def test_absorbed_misses_skip_the_memo(self):
        # Misses the shard filter (or an absent shard) answers are not
        # memoised: re-probing is a RAM bit test, and the memo set must
        # not grow with every cold fingerprint at fleet scale.
        d = GlobalDedupDirectory(shards_per_app=1, filter_capacity=32)
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        ix = FleetIndex(d, "doc", rank=1)
        for _ in range(4):
            assert ix.lookup(fp(777)) is None
        assert ix.filter_absorbed == 4
        assert len(ix._misses) == 0
        # Absent-shard probes behave the same way.
        cold = FleetIndex(d, "mp3", rank=1)
        assert cold.lookup(fp(5)) is None
        assert cold.filter_absorbed == 1
        assert len(cold._misses) == 0

    def test_outbox_batches_publishes(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        ix = FleetIndex(d, "doc", rank=0, publish_batch=4)
        for i in range(3):
            ix.insert(entry(i))
        d.commit_epoch()
        assert d.shards() == []   # below threshold: nothing published
        ix.insert(entry(3))       # hits the batch threshold
        # The shard materialises at the barrier (live topology is
        # frozen between commits) and the offer count rides along.
        assert d.shards() == []
        d.commit_epoch()
        assert d.shards()[0].publishes == 4
        ix.insert(entry(4))
        ix.flush_publishes()      # shard exists now: direct offer
        assert d.shards()[0].publishes == 5

    def test_adopted_and_reinserted_entries_not_republished(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        ix = FleetIndex(d, "doc", rank=1, publish_batch=1)
        adopted = ix.lookup(fp(1))
        ix.insert(adopted.bumped())   # refcount bookkeeping
        ix.insert(adopted.bumped(2))
        assert d.shards()[0].publishes == 1  # only the original publish

    def test_stat_invariants(self):
        d = GlobalDedupDirectory()
        ix = FleetIndex(d, "doc", rank=0)
        for i in range(5):
            ix.insert(entry(i))
        for i in range(10):
            ix.lookup(fp(i))
        s = ix.stats
        assert s.memory_hits <= s.hits <= s.lookups
        assert (s.lookups, s.hits) == (10, 5)


def _session_key(report):
    """Comparable projection of a fleet run (wall-time fields are host
    measurements, not simulation outputs, so they are excluded)."""
    wall = {"dedup_wall_seconds", "upload_wall_seconds"}
    return [
        ([{k: v for k, v in asdict(s).items() if k not in wall}
          for s in c.sessions],
         c.transfer_seconds, c.bill, c.cross_bytes)
        for c in report.clients
    ]


def _run_fleet(clients=4, sessions=2, max_workers=4, waves=2, **workload):
    workload.setdefault("file_kib", 12)
    sources = synthetic_fleet_sources(clients, sessions, **workload)
    service = FleetService(clients=clients, waves=waves)
    try:
        report = service.run(sources, max_workers=max_workers)
    finally:
        service.close()
    return service, report, sources


class TestFleetService:
    def test_cross_client_dedup_on_shared_corpus(self):
        _svc, report, _ = _run_fleet()
        assert report.cross_bytes > 0
        assert 0 < report.cross_client_fraction < 1
        # Wave-1 clients deduplicate against wave-0 uploads.
        assert report.clients[1].cross_bytes > 0
        assert report.clients[3].cross_bytes > 0
        # Fleet-wide invariants.
        assert report.bytes_unique < report.bytes_scanned
        assert report.dedup_ratio > 1
        assert report.makespan_seconds > 0
        assert report.aggregate_goodput > 0

    def test_no_shared_data_no_cross_dedup(self):
        _svc, report, _ = _run_fleet(clients=3, sessions=1,
                                     shared_files=0)
        assert report.cross_bytes == 0
        assert report.cross_client_fraction == 0.0

    def test_determinism_across_max_workers(self):
        # ISSUE acceptance: same seeds => identical aggregate session
        # stats regardless of the thread pool size.
        keys, shard_rows = [], []
        for workers in (1, 4, 8):
            _svc, report, _ = _run_fleet(clients=5, sessions=3,
                                         max_workers=workers)
            keys.append(_session_key(report))
            shard_rows.append(report.shard_rows)
        assert keys[0] == keys[1] == keys[2]
        assert shard_rows[0] == shard_rows[1] == shard_rows[2]

    def test_restore_through_adopted_chunks(self):
        service, report, sources = _run_fleet()
        rank = 1  # wave-1 client: provably adopted remote chunks
        assert report.clients[rank].cross_bytes > 0
        restorer = RestoreClient(service.clients[rank].cloud.backend)
        for session in range(2):
            files, _ = restorer.restore_to_memory(session)
            expected = {sf.path: sf.read()
                        for sf in sources[rank][session]}
            assert files == expected

    def test_container_id_ranges_disjoint(self):
        service, _report, _ = _run_fleet(clients=3)
        from repro.core import naming
        ids = [int(key[len(naming.CONTAINER_PREFIX):])
               for key in service.backend.list(naming.CONTAINER_PREFIX)]
        assert ids, "fleet stored no containers"
        owners = {i // CONTAINER_ID_STRIDE for i in ids}
        assert owners <= {0, 1, 2}
        assert len(owners) == 3  # every client allocated from its range

    def test_private_state_is_namespaced(self):
        service, _report, _ = _run_fleet(clients=2, sessions=1)
        keys = list(service.backend.list(""))
        manifests = [k for k in keys if "manifests/" in k]
        assert manifests
        assert all(k.startswith("clients/") for k in manifests)
        assert {k.split("/")[1] for k in manifests} == {"c000", "c001"}

    def test_mismatched_sources_rejected(self):
        service = FleetService(clients=2)
        with pytest.raises(SimulationError):
            service.run([[]])  # one client's sources for a two-client fleet
        with pytest.raises(SimulationError):
            service.run([[None], [None, None]])  # ragged session counts
        service.close()

    def test_directory_accounting_in_report(self):
        _svc, report, _ = _run_fleet()
        assert report.directory_entries > 0
        assert report.committed_entries == report.directory_entries
        assert report.epochs == 2 * 2  # rounds x waves
        assert sum(r["accepted"] for r in report.shard_rows) == \
            report.directory_entries
        assert report.server_seek_seconds() == 0.0  # memory shards
        rendered = report.render()
        assert "fleet summary" in rendered and "directory shards" in rendered


def _run_batching_fleet(index_factory=None):
    """Two clients, two waves: client 1 dedups against what client 0
    published a wave earlier.  One shard per app so every announced
    file lands on one shard as one batch."""
    sources = synthetic_fleet_sources(2, 2, file_kib=96, shared_files=10,
                                      private_files=2)
    directory = GlobalDedupDirectory(shards_per_app=1,
                                     index_factory=index_factory)
    service = FleetService(clients=2, directory=directory, waves=2)
    try:
        report = service.run(sources, max_workers=2)
        manifests = {key: service.backend.get(key)
                     for key in service.backend.list("clients/")
                     if "/manifests/" in key}
        committed = {s.name: s.committed_entries()
                     for s in directory.shards()}
    finally:
        service.close()
    return {
        "remote_probes": sum(c.remote_probes for c in report.clients),
        "remote_hits": sum(c.remote_hits for c in report.clients),
        "adopted_bytes": report.cross_bytes,
        "batches": sum(r["batches"] for r in report.shard_rows),
        "probes": sum(r["probes"] for r in report.shard_rows),
        "manifests": manifests,
        "committed": committed,
    }


class TestPerFileProbeBatching:
    """Regression: the batch hook had no real caller — ``FleetIndex``
    probed one fingerprint per ``probe_batch``, so ``batches == probes``
    and sparse shards elected champions from a single fingerprint."""

    def test_engine_announces_files_and_dedup_is_unchanged(self,
                                                           monkeypatch):
        batched = _run_batching_fleet()
        # The per-fingerprint path (no announcement) is the reference.
        monkeypatch.setattr(FleetIndex, "begin_batch",
                            lambda self, fingerprints, stream=None: None)
        single = _run_batching_fleet()
        assert single["batches"] == single["probes"] > 0
        assert batched["batches"] < batched["probes"]
        for key in ("remote_probes", "remote_hits", "adopted_bytes",
                    "probes", "committed", "manifests"):
            assert batched[key] == single[key], key
        assert batched["remote_hits"] > 0 and batched["manifests"]

    def test_sparse_shards_recover_most_cross_client_hits(self):
        from repro.index import SparseShardIndex
        exact = _run_batching_fleet()
        sparse = _run_batching_fleet(
            lambda app, bucket: SparseShardIndex(segment_chunks=16,
                                                 sample_bits=2))
        assert sparse["remote_hits"] <= exact["remote_hits"]
        assert sparse["remote_hits"] >= 0.8 * exact["remote_hits"]

    def test_announced_absorbed_misses_cost_one_round_trip(self):
        # An absent shard absorbs every probe; the announced answer
        # holds for the file in flight without entering the memo.
        d = GlobalDedupDirectory(shards_per_app=1)
        ix = FleetIndex(d, "doc", rank=0)
        ix.begin_batch([fp(1), fp(2), fp(1)])
        assert ix.remote_probes == 2 and ix.filter_absorbed == 2
        assert ix.lookup(fp(1)) is None and ix.lookup(fp(2)) is None
        assert ix.remote_probes == 2 and len(ix._misses) == 0
        ix.begin_batch([fp(3)])             # next file: answer replaced
        assert ix.lookup(fp(1)) is None
        assert ix.remote_probes == 4

    def test_announcement_is_stale_after_an_epoch_commit(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        ix = FleetIndex(d, "doc", rank=1)
        ix.begin_batch([fp(1)])
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        assert ix.lookup(fp(1)) == entry(1)


class TestRemovedFleetKnobs:
    @pytest.mark.parametrize("kwarg", [
        "shards_per_app", "cache_capacity", "locality_capacity",
        "filter_capacity", "shard_split_entries", "wan_spread", "prices",
        "publish_batch"])
    def test_service_rejects_removed_keyword(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            FleetService(clients=1, **{kwarg: 1})

    def test_sparse_index_rejects_removed_keyword(self):
        from repro.index import SparseShardIndex
        with pytest.raises(TypeError, match="max_segments_per_hook"):
            SparseShardIndex(max_segments_per_hook=4)


class TestFleetWorkloads:
    def test_synthetic_shared_part_identical_across_clients(self):
        sources = synthetic_fleet_sources(3, 2, file_kib=12)
        for session in range(2):
            shared = [
                {sf.path: sf.read() for sf in sources[rank][session]
                 if sf.path.startswith("shared/")}
                for rank in range(3)
            ]
            assert shared[0] == shared[1] == shared[2]
            assert shared[0]  # non-empty

    def test_synthetic_private_parts_differ(self):
        sources = synthetic_fleet_sources(2, 1, file_kib=12)
        private = [
            {sf.path: sf.read() for sf in sources[rank][0]
             if sf.path.startswith("private/")}
            for rank in range(2)
        ]
        assert set(private[0]) == set(private[1])  # same layout
        assert private[0] != private[1]            # different bytes

    def test_synthetic_deterministic(self):
        def digest():
            sources = synthetic_fleet_sources(2, 2, file_kib=12)
            h = hashlib.sha1()
            for per_client in sources:
                for source in per_client:
                    for sf in source:
                        h.update(sf.path.encode())
                        h.update(sf.read())
            return h.hexdigest()
        assert digest() == digest()

    def test_synthetic_files_clear_tiny_threshold(self):
        sources = synthetic_fleet_sources(1, 1, file_kib=12)
        assert all(sf.size >= 10 * 1024 for sf in sources[0][0])

    def test_generated_rejects_tiny_scale(self):
        with pytest.raises(WorkloadError):
            generated_fleet_sources(2, 2, bytes_per_client=1 << 20)
