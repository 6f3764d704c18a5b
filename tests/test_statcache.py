"""Tests for the cross-session stat cache: the backup engine replays an
unchanged file's recipe from its previous manifest.  Replay semantics,
safety rules (size+mtime pair, GC-epoch invalidation, stale-ref
fallback, failed sessions), the previous manifest across process
restarts, and parity with cache-off runs."""

import dataclasses

import numpy as np
import pytest

from repro.cloud import InMemoryBackend, SimulatedCloud
from repro.core import (
    BackupClient,
    MemorySource,
    RestoreClient,
    aa_dedupe_config,
    collect_garbage,
    invalidate_statcache,
)
from repro.core import naming
from repro.core.filecache import read_epoch
from repro.errors import BackupError, TransientCloudError
from repro.simulate.clock import VirtualClock
from repro.util.units import KIB


class _FailOnce(InMemoryBackend):
    """Fails the first PUT under ``prefix`` after it is armed."""

    prefix = None

    def _put(self, key, data):
        if self.prefix is not None and key.startswith(self.prefix):
            self.prefix = None
            raise TransientCloudError(f"injected failure: put {key}")
        super()._put(key, data)


def small_config(**overrides):
    base = dict(container_size=64 * KIB)
    base.update(overrides)
    return aa_dedupe_config(**base)


@pytest.fixture()
def dataset(rng):
    def blob(n):
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    files = {
        "music/song.mp3": blob(50_000),
        "docs/report.doc": blob(60_000),
        "vm/image.vmdk": blob(100_000),
        "misc/readme.txt": blob(12_000),
        "misc/tiny.txt": blob(512),
    }
    mtimes = {path: 1_000 + i for i, path in enumerate(sorted(files))}
    return files, mtimes


class TestStatCacheReplay:
    def test_unchanged_session_replays_without_reading(self, dataset):
        files, mtimes = dataset
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(files, mtimes))
        s2 = client.backup(MemorySource(files, mtimes))
        # Every file replayed from cache: no reads, no chunking, no
        # hashing — but the dedup accounting still sees the bytes.
        assert s2.files_unchanged == len(files)
        assert s2.ops.read_bytes == 0
        assert s2.ops.cdc_scanned_bytes == 0
        assert sum(s2.ops.hashed_bytes.values()) == 0
        assert s2.bytes_scanned == sum(len(v) for v in files.values())
        assert s2.bytes_unique == 0
        restored, report = RestoreClient(cloud).restore_to_memory(1)
        assert restored == files
        assert not report.corrupt

    def test_changed_file_takes_full_pipeline(self, dataset):
        files, mtimes = dataset
        client = BackupClient(InMemoryBackend(), small_config())
        client.backup(MemorySource(files, mtimes))
        files2 = dict(files)
        files2["docs/report.doc"] = files["docs/report.doc"] + b"more"
        mtimes2 = dict(mtimes)
        mtimes2["docs/report.doc"] = 9_999
        s2 = client.backup(MemorySource(files2, mtimes2))
        assert s2.files_unchanged == len(files) - 1
        assert s2.ops.read_bytes == len(files2["docs/report.doc"])

    def test_mtime_less_source_never_replays(self, dataset):
        # mtime_ns == 0 is the "unknown" sentinel: sources without
        # stamps must always take the full pipeline.
        files, _ = dataset
        client = BackupClient(InMemoryBackend(), small_config())
        client.backup(MemorySource(files))
        s2 = client.backup(MemorySource(files))
        assert s2.files_unchanged == 0
        assert s2.ops.read_bytes == sum(len(v) for v in files.values())
        assert all(entry.mtime_ns == 0 for entry in client._prev_manifest)

    def test_triple_requires_both_size_and_mtime(self):
        # An mtime rollback with a content change must never replay
        # wrong bytes: the triple matches only when size AND mtime both
        # match the cached entry.
        a = bytes(range(256)) * 100          # 25600 B
        b = bytes(reversed(range(256))) * 100  # same size, new content
        c = a + b"tail"                       # new size
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource({"f.doc": a}, {"f.doc": 5}))
        # Same size, different mtime: miss, full pipeline.
        s2 = client.backup(MemorySource({"f.doc": b}, {"f.doc": 7}))
        assert s2.files_unchanged == 0 and s2.ops.read_bytes == len(b)
        # mtime rolled back to a cached stamp, different size: miss.
        s3 = client.backup(MemorySource({"f.doc": c}, {"f.doc": 5}))
        assert s3.files_unchanged == 0 and s3.ops.read_bytes == len(c)
        for sid, want in enumerate([a, b, c]):
            restored, _ = RestoreClient(cloud).restore_to_memory(sid)
            assert restored == {"f.doc": want}

    def test_gc_sweep_invalidates_cache(self, dataset, rng):
        files, mtimes = dataset
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        extra_files = dict(files)
        # Big enough to fill whole containers of its own, so dropping it
        # actually deletes data (a dead container) rather than leaving
        # partially-live containers behind.
        extra_files["docs/old.doc"] = rng.integers(
            0, 256, size=300_000, dtype=np.uint8).tobytes()
        extra_mtimes = dict(mtimes, **{"docs/old.doc": 77})
        client.backup(MemorySource(extra_files, extra_mtimes))
        client.backup(MemorySource(files, mtimes))     # old.doc vanishes
        report = collect_garbage(cloud, retain_sessions=[1])
        # old.doc's extents died, so the sweep must bump the epoch (the
        # only stat-cache object the store ever holds).
        assert report.statcache_invalidated
        assert cloud.list("statcache/") == [naming.STATCACHE_EPOCH_KEY]
        # The resident cache is now a different epoch: session 2 must
        # re-chunk everything instead of replaying possibly-dead refs.
        s3 = client.backup(MemorySource(files, mtimes))
        assert s3.files_unchanged == 0
        assert s3.ops.read_bytes == sum(len(v) for v in files.values())
        # ... and the rebuilt cache replays again one session later.
        s4 = client.backup(MemorySource(files, mtimes))
        assert s4.files_unchanged == len(files)
        restored, _ = RestoreClient(cloud).restore_to_memory(3)
        assert restored == files

    def test_stale_cached_ref_falls_back(self, dataset):
        # A cached recipe whose ref no longer resolves in the index must
        # be discarded, counted, and the file re-processed — never
        # replayed blind.
        files, mtimes = dataset
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(files, mtimes))
        prev = client._prev_manifest
        entry = prev.get("docs/report.doc")
        bogus = [dataclasses.replace(r, fingerprint=b"\x00" * len(
            r.fingerprint)) for r in entry.refs]
        prev._files[entry.path] = dataclasses.replace(entry, refs=bogus)
        s2 = client.backup(MemorySource(files, mtimes))
        assert s2.statcache_stale == 1
        assert s2.files_unchanged == len(files) - 1
        assert s2.ops.read_bytes == len(files["docs/report.doc"])
        restored, _ = RestoreClient(cloud).restore_to_memory(1)
        assert restored == files

    def test_cold_cache_manifest_parity(self, dataset):
        # With a cold cache the engine must behave byte-identically to
        # stat_cache=False — same manifest, same uploads.
        files, mtimes = dataset

        def manifest_bytes(stat_cache):
            cloud = SimulatedCloud(InMemoryBackend(), clock=VirtualClock())
            client = BackupClient(
                cloud, small_config(stat_cache=stat_cache))
            client.backup(MemorySource(files, mtimes))
            client.close()
            return cloud.get(naming.manifest_key(0))

        assert manifest_bytes(True) == manifest_bytes(False)

    def test_persisted_cache_survives_restart(self, dataset):
        files, mtimes = dataset
        cloud = InMemoryBackend()
        first = BackupClient(cloud, small_config())
        first.backup(MemorySource(files, mtimes))
        first.close()
        # A brand-new process: state rebuilt from the manifests only.
        second = BackupClient(cloud, small_config())
        s2 = second.backup(MemorySource(files, mtimes))
        assert s2.session_id == 1
        assert s2.files_unchanged == len(files)
        assert s2.ops.read_bytes == 0
        restored, _ = RestoreClient(cloud).restore_to_memory(1)
        assert restored == files

    def test_stat_cache_off_writes_no_blobs(self, dataset):
        files, mtimes = dataset
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config(stat_cache=False))
        client.backup(MemorySource(files, mtimes))
        s2 = client.backup(MemorySource(files, mtimes))
        assert s2.files_unchanged == 0
        assert cloud.list("statcache/") == []

    def test_parallel_warm_session_matches_serial(self, dataset):
        files, mtimes = dataset

        def warm_manifest(workers):
            cloud = SimulatedCloud(InMemoryBackend(), clock=VirtualClock())
            client = BackupClient(cloud, small_config(
                parallel_workers=workers))
            client.backup(MemorySource(files, mtimes))
            stats = client.backup(MemorySource(files, mtimes))
            client.close()
            return cloud.get(naming.manifest_key(1)), stats

        serial_bytes, _ = warm_manifest(1)
        parallel_bytes, stats = warm_manifest(3)
        assert stats.files_unchanged == len(files)
        assert stats.ops.read_bytes == 0
        assert parallel_bytes == serial_bytes

    @pytest.mark.parametrize("engine", [
        {}, {"pipeline_uploads": True, "parallel_workers": 2}],
        ids=["serial", "pipelined"])
    def test_failed_session_keeps_replay_source(self, dataset, rng,
                                                engine):
        # A session that fails mid-upload never replaced the previous
        # manifest, so the next session still replays every unchanged
        # file from it.
        files, mtimes = dataset
        cloud = _FailOnce()
        client = BackupClient(cloud, small_config(**engine))
        client.backup(MemorySource(files, mtimes))
        grown = dict(files, **{"docs/new.doc": rng.integers(
            0, 256, size=200_000, dtype=np.uint8).tobytes()})
        cloud.prefix = naming.CONTAINER_PREFIX
        with pytest.raises((BackupError, TransientCloudError)):
            client.backup(MemorySource(grown, dict(mtimes, **{
                "docs/new.doc": 55})), session_id=1)
        s2 = client.backup(MemorySource(files, mtimes), session_id=1)
        assert s2.files_unchanged == len(files)
        assert s2.ops.read_bytes == 0
        restored, _ = RestoreClient(cloud).restore_to_memory(1)
        assert restored == files

    def test_failed_session_recipes_never_replay(self, dataset):
        # The failed session's recipe for an edited file never became a
        # manifest: re-running the same snapshot must process the file
        # again, not replay what the failed session placed.
        files, mtimes = dataset
        cloud = _FailOnce()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(files, mtimes))
        edited = dict(files, **{
            "docs/report.doc": files["docs/report.doc"][::-1]})
        edited_mtimes = dict(mtimes, **{"docs/report.doc": 9_999})
        cloud.prefix = naming.MANIFEST_PREFIX
        with pytest.raises(TransientCloudError):
            client.backup(MemorySource(edited, edited_mtimes),
                          session_id=1)
        s2 = client.backup(MemorySource(edited, edited_mtimes),
                           session_id=1)
        assert s2.files_unchanged == len(files) - 1
        assert s2.ops.read_bytes == len(edited["docs/report.doc"])
        restored, _ = RestoreClient(cloud).restore_to_memory(1)
        assert restored == edited


class TestFileCacheUnit:
    """The ``filecache`` module's store-level helpers."""

    def test_epoch_helpers(self):
        cloud = InMemoryBackend()
        assert read_epoch(cloud) == 0
        invalidate_statcache(cloud)
        assert read_epoch(cloud) == 1
        invalidate_statcache(cloud, ["clients/job/manifests/x"])
        assert read_epoch(cloud) == 2
        assert read_epoch(cloud, "clients/job/statcache/EPOCH") == 1
        cloud.put(naming.STATCACHE_EPOCH_KEY, b"garbage")
        assert read_epoch(cloud) == 0
