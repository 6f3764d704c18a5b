"""Fleet subsystem tests: global directory, fleet index, fleet runs
as service waves.

The determinism suite is the load-bearing part: a fleet run's results
(session stats, shard accounting, WAN time, bills) must be identical
for a fixed seed no matter how many worker threads execute a wave —
``max_workers`` is a performance knob, never a results knob.
"""

import hashlib
import random
import threading
from dataclasses import asdict

import pytest

from repro.cloud import InMemoryBackend, NamespacedBackend
from repro.core import MemorySource, naming
from repro.core.restore import RestoreClient
from repro.core.retention import RetainLastN, apply_retention
from repro.errors import (ConfigError, ObjectNotFound, SimulationError,
                          TransientCloudError, WorkloadError)
from repro.fleet import (
    FleetIndex,
    FleetReport,
    GlobalDedupDirectory,
    fleet_spec,
    generated_fleet_sources,
    synthetic_fleet_sources,
)
from repro.service import (FAILED, SUCCEEDED, BackupService,
                           IntervalSchedule, JobSpec, ServiceSpec,
                           SyntheticJobSource)
from repro.core.naming import CONTAINER_ID_STRIDE, CONTAINER_PREFIX
from repro.index import IndexEntry, LocalityCache


def fp(i: int) -> bytes:
    return hashlib.sha1(str(i).encode()).digest()


def entry(i: int, length: int = 64) -> IndexEntry:
    return IndexEntry(fingerprint=fp(i), container_id=i, offset=0,
                      length=length)


def lookup(d: GlobalDedupDirectory, app: str, fingerprint: bytes):
    """One fingerprint through the directory's batched probe path."""
    return d.probe_batch(app, [fingerprint])[0][0]


class TestGlobalDedupDirectory:
    def test_sharding_by_app_and_ring(self):
        d = GlobalDedupDirectory(shards_per_app=4)
        for app in ("doc", "doc", "mp3"):   # doc's second offer reuses
            d.publish_batch(app, [entry(1)], rank=0)
        d.commit_epoch()
        doc, mp3 = d.shards()             # apps never share a shard
        assert (doc.app, mp3.app) == ("doc", "mp3")
        assert doc.bucket == mp3.bucket == d._bucket(fp(1))
        assert 0 <= doc.bucket < 4

    def test_publish_invisible_until_commit(self):
        d = GlobalDedupDirectory()
        d.publish_batch("doc", [entry(1)], rank=0)
        assert lookup(d, "doc", fp(1)) is None
        assert d.commit_epoch() == 1
        assert lookup(d, "doc", fp(1)) == entry(1)
        assert d.epoch == 1

    def test_lookup_batch_alignment_and_batching(self):
        d = GlobalDedupDirectory(shards_per_app=2)
        d.publish_batch("doc", [entry(i) for i in range(6)], rank=0)
        d.commit_epoch()
        fps = [fp(5), fp(999), fp(0), fp(3)]
        out = d.probe_batch("doc", fps)[0]
        assert out == [entry(5), None, entry(0), entry(3)]
        # The whole batch cost at most one probe round per shard.
        assert sum(s.batches for s in d.shards()) <= 2
        assert sum(s.probes for s in d.shards()) == 4
        assert sum(s.hits for s in d.shards()) == 3

    def test_lowest_rank_wins_conflicts(self):
        d = GlobalDedupDirectory()
        late = IndexEntry(fingerprint=fp(1), container_id=777, offset=0,
                          length=64)
        d.publish_batch("doc", [late], rank=5)
        d.publish_batch("doc", [entry(1)], rank=2)  # lower rank, later
        d.commit_epoch()
        assert lookup(d, "doc", fp(1)).container_id == 1

    def test_committed_fingerprint_not_replaced(self):
        d = GlobalDedupDirectory()
        d.publish_batch("doc", [entry(1)], rank=3)
        assert d.commit_epoch() == 1
        other = IndexEntry(fingerprint=fp(1), container_id=42, offset=0,
                           length=64)
        d.publish_batch("doc", [other], rank=0)
        assert d.commit_epoch() == 0  # location already settled
        assert lookup(d, "doc", fp(1)).container_id == 1

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
        lookup(d, "doc", fp(1))
        lookup(d, "doc", fp(2))
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
        assert lookup(d, "doc", fp(1)) == entry(1)
        assert lookup(d, "doc", fp(1)) == entry(1)
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
                                       "filter_fp_rate", "ring_vnodes",
                                       "shard_split_entries"])
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

    @pytest.mark.parametrize("shards, buckets", [
        (4, [3, 1, 3, 1, 0, 2, 0, 0, 0, 0, 0, 1]),
        (300, [285, 186, 5, 217, 201, 226, 292, 291, 154, 228, 106, 123]),
    ])
    def test_routing_is_pinned(self, shards, buckets):
        # Routing decides which shard holds every committed entry, so
        # the table (BLAKE2b points, 128 per bucket) must not drift.
        d = GlobalDedupDirectory(shards_per_app=shards)
        assert [d._bucket(fp(i)) for i in range(12)] == buckets

    # -- regression: read path must never allocate shards --------------
    def test_lookup_never_allocates_shards(self):
        d = GlobalDedupDirectory(shards_per_app=4)
        out = d.probe_batch("doc", [fp(i) for i in range(64)])[0]
        assert out == [None] * 64
        assert d.shards() == []          # no shard map mutation
        assert d.absent_probes == 64
        # A published app allocates only the arcs publishes touched;
        # probing a *different* app afterwards still allocates nothing.
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        before = [s.name for s in d.shards()]
        assert lookup(d, "mp3", fp(1)) is None
        assert d.probe_batch("mp3", [fp(2), fp(3)])[0] == [None, None]
        assert [s.name for s in d.shards()] == before

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
            assert lookup(d, "doc", fp(i)) == entry(i)
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
        d.close()

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
        assert all(lookup(d, "doc", fp(i)) == entry(i) for i in range(200))


class TestFleetIndex:
    def test_local_before_remote(self):
        d = GlobalDedupDirectory()
        ix = FleetIndex(d, "doc", rank=0)
        ix.insert(entry(1))
        assert ix.lookup(fp(1)) == entry(1)
        assert d.traffic == {}  # no directory probe
        assert ix.stats.memory_hits == 1

    def test_remote_hit_adopts_entry(self):
        d = GlobalDedupDirectory()
        d.publish_batch("doc", [entry(7, length=100)], rank=0)
        d.commit_epoch()
        ix = FleetIndex(d, "doc", rank=1)
        assert ix.lookup(fp(7)) == entry(7, length=100)
        assert d.traffic[1] == {"probes": 1, "hits": 1, "bytes": 100}
        # Adopted: the repeat is a pure local memory hit.
        assert ix.lookup(fp(7)) == entry(7, length=100)
        assert d.traffic[1]["probes"] == 1
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
        assert d.traffic[1]["probes"] == 1  # memoised within the epoch
        d.publish_batch("doc", [entry(3)], rank=0)
        d.commit_epoch()
        assert ix.lookup(fp(3)) == entry(3)  # memo invalidated by commit
        assert d.traffic[1]["probes"] == 2

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

    def test_nothing_published_before_flush(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        ix = FleetIndex(d, "doc", rank=0)
        for i in range(200):
            ix.insert(entry(i))
        d.commit_epoch()
        assert d.shards() == [] and len(d) == 0
        ix.flush_publishes()
        # The shard materialises at the barrier (live topology is
        # frozen between commits) and the offer count rides along.
        assert d.shards() == []
        assert d.commit_epoch() == 200
        assert d.shards()[0].publishes == 200
        ix.insert(entry(200))
        ix.flush_publishes()      # shard exists now: direct offer
        assert d.shards()[0].publishes == 201

    def test_adopted_and_reinserted_entries_not_republished(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        ix = FleetIndex(d, "doc", rank=1)
        assert ix.lookup(fp(1)) is not None   # adopted
        assert ix.lookup(fp(1)) is not None   # local hit: a read only
        ix.flush_publishes()
        assert ix.stats.inserts == 0
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


class _PutLog(InMemoryBackend):
    """An in-memory backend that records every key it is PUT."""

    def __init__(self) -> None:
        super().__init__()
        self.puts: list = []

    def _put(self, key, data):
        self.puts.append(key)
        super()._put(key, data)


class _Unreadable(list):
    """A client's session list whose sessions raise a non-engine error
    when fetched (a reader bug, not a failed backup)."""

    def __getitem__(self, index):
        raise RuntimeError("reader bug")


class _FailingPut(InMemoryBackend):
    """An in-memory backend whose ``fail_at``-th PUT raises."""

    def __init__(self, fail_at: int) -> None:
        super().__init__()
        self.fail_at = fail_at

    def _put(self, key, data):
        self.fail_at -= 1
        if self.fail_at == 0:
            raise TransientCloudError(f"injected failure: put {key}")
        super()._put(key, data)


def _fleet(sources, backend=None, directory=None, waves=2):
    """A backup service running ``sources`` as a fleet."""
    if directory is None:
        directory = GlobalDedupDirectory()
    return BackupService(fleet_spec(sources, waves=waves), backend=backend,
                         directory=directory)


def _session_key(report):
    """Comparable projection of a fleet run (wall-time fields are host
    measurements, not simulation outputs, so they are excluded)."""
    wall = {"dedup_wall_seconds"}
    return [
        ([{k: v for k, v in asdict(s).items() if k not in wall}
          for s in c["sessions"]],
         c["transfer_seconds"], c["bill"], c["cross_bytes"])
        for c in report.clients
    ]


def _run_fleet(clients=4, sessions=2, max_workers=4, waves=2, **workload):
    workload.setdefault("file_kib", 12)
    sources = synthetic_fleet_sources(clients, sessions, **workload)
    service = _fleet(sources, waves=waves)
    try:
        service.run(max_workers=max_workers)
        report = FleetReport.of(service)
    finally:
        service.close()
    return service, report, sources


class TestFleetService:
    def test_cross_client_dedup_on_shared_corpus(self):
        _svc, report, _ = _run_fleet()
        assert report.cross_bytes > 0
        assert 0 < report.cross_client_fraction < 1
        # Wave-1 clients deduplicate against wave-0 uploads.
        assert report.clients[1]["cross_bytes"] > 0
        assert report.clients[3]["cross_bytes"] > 0
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
        # Same seeds => identical aggregate session stats regardless of
        # the thread pool size.
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
        assert report.clients[rank]["cross_bytes"] > 0
        restorer = RestoreClient(service.jobs[rank].view)
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

    def test_reinstantiated_fleet_keeps_earlier_sessions(self):
        """A second fleet over the same backend carries on where the
        first stopped: it used to restart at session 0 and container 0,
        so session 0 restored as tree B and tree A was gone."""
        rng = random.Random(11)
        shared = rng.randbytes(30_000)
        tree_a = {"docs/a.doc": rng.randbytes(40_000),
                  "docs/shared.pdf": shared}
        tree_b = {"docs/b.doc": rng.randbytes(40_000),
                  "docs/shared.pdf": shared}
        backend = _PutLog()
        for tree in (tree_a, tree_b):
            service = _fleet([[MemorySource(tree)], [MemorySource({})]],
                             backend=backend)
            try:
                service.run()
            finally:
                service.close()
        restorer = RestoreClient(NamespacedBackend(backend, "c000"))
        assert restorer.restore_to_memory(0)[0] == tree_a
        assert restorer.restore_to_memory(1)[0] == tree_b
        containers = [k for k in backend.puts
                      if k.startswith(CONTAINER_PREFIX)]
        assert containers and len(set(containers)) == len(containers)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_run_retried_after_failed_session_loses_nothing(self, k):
        """A fleet client whose session failed used to keep (and then
        publish) index entries into containers that never became
        durable, so its retried session committed a manifest whose
        restore raised ``ObjectNotFound``."""
        sources = synthetic_fleet_sources(2, 1, file_kib=64, seed=3)
        backend = _FailingPut(k)
        # One wave per round; round 1 backs the same trees up again.
        service = _fleet([s * 2 for s in sources], backend=backend,
                         waves=1)
        try:
            first = service.run(until=0)
            assert first.exit_code == 1
            assert [r.state for r in first.reports].count(FAILED) == 1
            service.run()
        finally:
            service.close()
        for runtime in service.jobs:
            view = runtime.view
            expected = {sf.path: sf.read()
                        for sf in sources[runtime.rank][0]}
            session_ids = naming.session_ids(view)
            assert session_ids
            for session_id in session_ids:
                restored, _ = RestoreClient(view).restore_to_memory(
                    session_id)
                assert restored == expected, (runtime.spec.name,
                                              session_id)

    def test_failed_session_offers_never_reach_the_directory(self):
        """The only session fails at its first container PUT, after
        its chunks entered the index: nothing it offered reaches the
        directory, neither at the wave barrier nor through the flush
        in ``BackupService.close()``."""
        sources = synthetic_fleet_sources(1, 1, file_kib=64, seed=3)
        directory = GlobalDedupDirectory(shards_per_app=1)
        service = _fleet(sources, backend=_FailingPut(1),
                         directory=directory, waves=1)
        try:
            assert service.run().exit_code == 1
        finally:
            service.close()
        assert directory.commit_epoch() == 0
        assert len(directory) == 0

    def test_rebuilt_index_offers_nothing_again(self):
        """A session fails between two that succeed.  The index the next
        session open rebuilds names the first session's chunks, which
        the directory already holds: the barriers offer each stored
        chunk once, so every offer is accepted."""
        first, second = synthetic_fleet_sources(1, 2, file_kib=64,
                                                seed=3)[0]
        backend = _FailingPut(0)            # armed below
        directory = GlobalDedupDirectory(shards_per_app=1)
        service = _fleet([[first, second, second]], backend=backend,
                         directory=directory, waves=1)
        try:
            service.run(until=0)
            stored = len(directory)
            backend.fail_at = 1
            service.run()
        finally:
            service.close()
        assert [r.state for r in service.reports] == \
            [SUCCEEDED, FAILED, SUCCEEDED]
        shards = directory.shards()
        assert len(directory) > stored > 0
        assert sum(s.publishes for s in shards) == len(directory)
        assert sum(s.accepted for s in shards) == len(directory)

    def test_private_state_is_namespaced(self):
        service, _report, _ = _run_fleet(clients=2, sessions=1)
        keys = list(service.backend.list(""))
        manifests = [k for k in keys if "manifests/" in k]
        assert manifests
        assert all(k.startswith("clients/") for k in manifests)
        assert {k.split("/")[1] for k in manifests} == {"c000", "c001"}

    def test_mismatched_sources_rejected(self):
        with pytest.raises(SimulationError):
            fleet_spec([])                    # no clients
        with pytest.raises(SimulationError):
            fleet_spec([[None], [None, None]])  # ragged session counts
        with pytest.raises(SimulationError):
            fleet_spec([[None]], waves=0)

    def test_directory_accounting_in_report(self):
        _svc, report, _ = _run_fleet()
        assert report.directory_entries > 0
        assert report.epochs == 2 * 2  # rounds x waves
        assert sum(r["accepted"] for r in report.shard_rows) == \
            report.directory_entries
        assert report.server_seek_seconds() == 0.0  # memory shards
        rendered = report.render()
        assert "fleet summary" in rendered and "directory shards" in rendered


class TestServiceWaves:
    """The one orchestrator: jobs due at one instant run as a wave."""

    @staticmethod
    def _three_jobs(max_workers):
        spec = ServiceSpec(jobs=tuple(
            JobSpec(name=name, source=SyntheticJobSource(name, seed=rank),
                    schedule=IntervalSchedule(interval=3600))
            for rank, name in enumerate(("a", "b", "c"))))
        service = BackupService(spec)
        try:
            report = service.run(until=2 * 3600, max_workers=max_workers)
        finally:
            service.close()
        objects = {key: service.backend.get(key)
                   for key in service.backend.list("")}
        return report.to_json(), objects

    def test_wave_is_identical_at_any_pool_size(self):
        serial = self._three_jobs(max_workers=1)
        pooled = self._three_jobs(max_workers=4)
        assert [r["job"] for r in serial[0]["runs"]] == ["a", "b", "c"] * 3
        assert all(r["state"] == SUCCEEDED for r in serial[0]["runs"])
        assert serial == pooled

    def test_single_worker_runs_on_the_calling_thread(self):
        threads = []

        def source(_run):
            threads.append(threading.current_thread())
            return MemorySource({})

        service = BackupService(ServiceSpec(jobs=(
            JobSpec(name="j", source=source),)))
        try:
            service.run(max_workers=1)
        finally:
            service.close()
        assert threads == [threading.current_thread()]

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_member_error_keeps_the_others_barrier(self, max_workers):
        """A wave member that raises loses only its own report: the
        members that committed sessions still flush, commit the epoch
        and are reported before the error propagates."""
        tree = {"docs/a.doc": random.Random(5).randbytes(40_000)}
        directory = GlobalDedupDirectory()
        service = _fleet([[MemorySource(tree)], _Unreadable([None])],
                         directory=directory, waves=1)
        try:
            with pytest.raises(RuntimeError, match="reader bug"):
                service.run(max_workers=max_workers)
        finally:
            service.close()
        assert [(r.job, r.state) for r in service.reports] == \
            [("c000", SUCCEEDED)]
        assert directory.epoch == 1 and len(directory) > 0

    def test_retention_refused_with_directory(self):
        spec = ServiceSpec(jobs=(JobSpec(
            name="j", source=SyntheticJobSource("j"),
            retention=RetainLastN(1)),))
        directory = GlobalDedupDirectory()
        with pytest.raises(ConfigError, match="retention"):
            BackupService(spec, directory=directory)
        directory.close()

    @pytest.mark.xfail(strict=True, raises=ObjectNotFound, reason=(
        "the directory keeps entries for containers retention swept; "
        "fleet GC reconciliation turns this green"))
    def test_retention_sweep_leaves_directory_entries_behind(self):
        rng = random.Random(38)
        a, b, c = (MemorySource({f"docs/{name}.doc": rng.randbytes(300_000)})
                   for name in "abc")
        both = MemorySource({**dict((sf.path, sf.read()) for sf in a),
                             **dict((sf.path, sf.read()) for sf in b)})
        service = _fleet([[a, c, c], [b, b, both]])
        try:
            service.run(until=3)                   # rounds 0 and 1
            outcome = apply_retention(service.backend, service.jobs[0].view,
                                      RetainLastN(1), now=service.clock.now())
            assert outcome.dropped == [0] and outcome.deleted_containers == 1
            service.run()                          # round 2
            report = FleetReport.of(service)
        finally:
            service.close()
        # Client 1 adopted A from the directory: its chunks point into
        # the container retention swept.
        assert report.clients[1]["cross_bytes"] == 300_000
        view = service.jobs[1].view
        restored, _ = RestoreClient(view).restore_to_memory(
            naming.session_ids(view)[-1])
        assert restored == {sf.path: sf.read() for sf in both}


def _run_batching_fleet():
    """Two clients, two waves: client 1 dedups against what client 0
    published a wave earlier.  One shard per app so every announced
    file lands on one shard as one batch."""
    sources = synthetic_fleet_sources(2, 2, file_kib=96, shared_files=10,
                                      private_files=2)
    directory = GlobalDedupDirectory(shards_per_app=1)
    service = _fleet(sources, directory=directory)
    try:
        service.run(max_workers=2)
        report = FleetReport.of(service)
        manifests = {key: service.backend.get(key)
                     for key in service.backend.list("clients/")
                     if "/manifests/" in key}
        committed = {s.name: s.committed_entries()
                     for s in directory.shards()}
    finally:
        service.close()
    return {
        "remote_probes": sum(c["remote_probes"] for c in report.clients),
        "remote_hits": sum(c["remote_hits"] for c in report.clients),
        "adopted_bytes": report.cross_bytes,
        "batches": sum(r["batches"] for r in report.shard_rows),
        "probes": sum(r["probes"] for r in report.shard_rows),
        "manifests": manifests,
        "committed": committed,
    }


class TestPerFileProbeBatching:
    """Regression: the batch hook had no real caller — ``FleetIndex``
    probed one fingerprint per ``probe_batch``, so ``batches == probes``."""

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

    def test_announced_absorbed_misses_cost_one_round_trip(self):
        # An absent shard absorbs every probe; the announced answer
        # holds for the file in flight without entering the memo.
        d = GlobalDedupDirectory(shards_per_app=1)
        ix = FleetIndex(d, "doc", rank=0)
        ix.begin_batch([fp(1), fp(2), fp(1)])
        assert d.traffic[0]["probes"] == 2 and ix.filter_absorbed == 2
        assert ix.lookup(fp(1)) is None and ix.lookup(fp(2)) is None
        assert d.traffic[0]["probes"] == 2 and len(ix._misses) == 0
        ix.begin_batch([fp(3)])             # next file: answer replaced
        assert ix.lookup(fp(1)) is None
        assert d.traffic[0]["probes"] == 4

    def test_announcement_is_stale_after_an_epoch_commit(self):
        d = GlobalDedupDirectory(shards_per_app=1)
        ix = FleetIndex(d, "doc", rank=1)
        ix.begin_batch([fp(1)])
        d.publish_batch("doc", [entry(1)], rank=0)
        d.commit_epoch()
        assert ix.lookup(fp(1)) == entry(1)


class TestFleetCli:
    def test_failed_session_exits_one(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.service import runner
        # The fifth PUT of the shared store fails: one client session.
        monkeypatch.setattr(runner, "InMemoryBackend",
                            lambda: _FailingPut(5))
        assert main(["fleet", "--clients", "2", "--sessions", "1"]) == 1
        captured = capsys.readouterr()
        assert "fleet summary" in captured.out
        assert captured.err.count("FAILED: c00") == 1


class TestRemovedFleetKnobs:
    @pytest.mark.parametrize("kwarg", [
        "shards_per_app", "cache_capacity", "locality_capacity",
        "filter_capacity", "shard_split_entries", "wan_spread", "prices",
        "publish_batch", "config_factory", "waves", "wan"])
    def test_service_rejects_removed_keyword(self, kwarg):
        # The one orchestrator took ``directory`` from the fleet and no
        # other knob: a directory implies the rank-spread PAPER_WAN.
        with pytest.raises(TypeError, match=kwarg):
            BackupService(fleet_spec([[]]), **{kwarg: 1})

    def test_fleet_index_rejects_publish_batch(self):
        with pytest.raises(TypeError, match="publish_batch"):
            FleetIndex(GlobalDedupDirectory(), "doc", rank=0,
                       publish_batch=1)

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
