"""Tests for restore verification, directory restore, GC and index sync."""

import numpy as np
import pytest

from repro.cloud import InMemoryBackend, LocalDirectoryBackend
from repro.core import (
    BackupClient,
    DirectorySource,
    IndexSynchronizer,
    Manifest,
    MemorySource,
    RestoreClient,
    aa_dedupe_config,
    collect_garbage,
    restore_session,
)
from repro.core import naming
from repro.core.scrub import scrub_cloud
from repro.errors import IntegrityError, ObjectNotFound, RestoreError
from repro.index.appaware import AppAwareIndex
from repro.util.units import KIB


@pytest.fixture()
def backed_up(rng):
    return _backed_up(rng)


def _backed_up(rng):
    def blob(n):
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    files = {
        "a/song.mp3": blob(40_000),
        "b/doc.doc": blob(30_000),
        "b/tiny.txt": blob(100),
        "c/vm.vmdk": blob(50_000),
    }
    cloud = InMemoryBackend()
    client = BackupClient(cloud, aa_dedupe_config(container_size=32 * KIB))
    client.backup(MemorySource(files))
    files2 = dict(files)
    files2["b/doc.doc"] = files["b/doc.doc"] + blob(4_000)
    client.backup(MemorySource(files2))
    return cloud, client, files, files2


class TestRestore:
    def test_selective_restore(self, backed_up):
        cloud, _c, files, _f2 = backed_up
        out, report = RestoreClient(cloud).restore_to_memory(
            0, paths=["b/doc.doc"])
        assert out == {"b/doc.doc": files["b/doc.doc"]}
        assert report.files_restored == 1

    def test_selective_restore_missing_path(self, backed_up):
        cloud = backed_up[0]
        with pytest.raises(RestoreError):
            RestoreClient(cloud).restore_to_memory(0, paths=["ghost.txt"])

    def test_restore_to_directory(self, backed_up, tmp_path):
        cloud, _c, files, _ = backed_up
        report = restore_session(cloud, 0, tmp_path / "out")
        assert report.files_restored == len(files)
        for path, data in files.items():
            assert (tmp_path / "out" / path).read_bytes() == data

    def test_missing_session(self, backed_up):
        with pytest.raises(ObjectNotFound):
            RestoreClient(backed_up[0]).restore_to_memory(99)

    def test_verification_detects_corruption(self, backed_up):
        cloud, client, _f, _f2 = backed_up
        # Corrupt one byte of a standalone... all data is in containers;
        # corrupt a container payload byte directly in the dict.
        key = cloud.list(naming.CONTAINER_PREFIX)[0]
        blob = bytearray(cloud._objects[key])
        blob[40] ^= 0xFF  # inside the data section
        cloud._objects[key] = bytes(blob)
        with pytest.raises(IntegrityError):
            RestoreClient(cloud).restore_to_memory(0)

    def test_verification_skippable(self, backed_up):
        cloud = backed_up[0]
        out, report = RestoreClient(cloud, verify=False).restore_to_memory(0)
        assert report.chunks_verified == 0
        assert len(out) == 4

    def test_container_cache_bounds_fetches(self, backed_up):
        cloud = backed_up[0]
        before = cloud.stats.get_requests
        rc = RestoreClient(cloud, container_cache_size=16)
        rc.restore_to_memory(1)
        fetches = cloud.stats.get_requests - before
        containers = len(cloud.list(naming.CONTAINER_PREFIX))
        # manifest + at most one fetch per container.
        assert fetches <= containers + 1

    def test_chunks_verified_counted(self, backed_up):
        cloud = backed_up[0]
        _out, report = RestoreClient(cloud).restore_to_memory(0)
        assert report.chunks_verified >= 4


class TestGarbageCollection:
    def test_dropping_old_session_keeps_new_restorable(self, backed_up):
        cloud, _c, _f, files2 = backed_up
        report = collect_garbage(cloud, retain_sessions=[1])
        assert report.deleted_manifests == 1
        out, _ = RestoreClient(cloud).restore_to_memory(1)
        assert out == files2
        with pytest.raises(ObjectNotFound):
            RestoreClient(cloud).restore_to_memory(0)

    def test_retain_all_deletes_nothing(self, backed_up):
        cloud = backed_up[0]
        containers_before = len(cloud.list(naming.CONTAINER_PREFIX))
        report = collect_garbage(cloud, retain_sessions=[0, 1])
        assert report.deleted_containers == 0
        assert report.deleted_manifests == 0
        assert len(cloud.list(naming.CONTAINER_PREFIX)) == containers_before

    def test_drop_everything(self, backed_up):
        cloud = backed_up[0]
        report = collect_garbage(cloud, retain_sessions=[])
        assert report.deleted_manifests == 2
        assert cloud.list(naming.CONTAINER_PREFIX) == []

    def test_live_bytes_reported(self, backed_up):
        cloud = backed_up[0]
        report = collect_garbage(cloud, retain_sessions=[0, 1])
        assert sum(report.container_live_bytes.values()) > 100_000

    def test_stray_key_under_containers_does_not_wedge_gc(self):
        # Regression: the container sweep parsed every key under
        # containers/ with a bare int() — after the dropped manifests
        # were already deleted — so one stray key (a temp file left by
        # a PUT killed mid-write) made every later GC raise ValueError
        # with nothing swept.  (Own generator: the session-wide `rng`
        # stream feeds later tests.)
        cloud, _c, _f, files2 = _backed_up(np.random.default_rng(9))
        stray = naming.CONTAINER_PREFIX + "0000000009.k3j2.tmp"
        cloud.put(stray, b"torn")
        dead = (Manifest.from_json(cloud.get(naming.manifest_key(0)))
                .referenced_containers()
                - Manifest.from_json(cloud.get(naming.manifest_key(1)))
                .referenced_containers())
        report = collect_garbage(cloud, retain_sessions=[1])
        assert report.deleted_manifests == 1
        assert report.deleted_containers == len(dead) > 0
        assert stray in cloud.list(naming.CONTAINER_PREFIX)  # scrub's call
        out, _ = RestoreClient(cloud).restore_to_memory(1)
        assert out == files2

    def test_object_mode_gc(self, rng):
        # Avamar-style standalone chunk objects are swept too.
        from repro.baselines import avamar_config
        files = {"x.doc": rng.integers(0, 256, 30_000,
                                       dtype=np.uint8).tobytes()}
        cloud = InMemoryBackend()
        client = BackupClient(cloud, avamar_config())
        client.backup(MemorySource(files))
        assert cloud.list(naming.CHUNK_PREFIX)
        report = collect_garbage(cloud, retain_sessions=[])
        assert report.deleted_objects > 0
        assert cloud.list(naming.CHUNK_PREFIX) == []


class TestIndexSync:
    def test_push_pull_roundtrip(self, backed_up):
        cloud, client, _f, _f2 = backed_up
        fresh = AppAwareIndex()
        restored = IndexSynchronizer(cloud).pull(fresh)
        assert restored == len(client.index)
        assert fresh.sizes() == client.index.sizes()

    def test_push_skips_unchanged(self, backed_up):
        cloud, client, _f, _f2 = backed_up
        sync = IndexSynchronizer(cloud)
        first = sync.push(client.index)
        assert first > 0
        assert sync.push(client.index) == 0  # nothing changed

    def test_disaster_recovery_dedup_continuity(self, backed_up, rng):
        # A brand-new client that pulls the index keeps deduplicating
        # against data already in the cloud.
        cloud, old_client, files, files2 = backed_up
        new_client = BackupClient(cloud, old_client.config)
        IndexSynchronizer(cloud).pull(new_client.index)
        stats = new_client.backup(MemorySource(files2), session_id=5)
        # Only tiny repack bytes are re-uploaded; all chunks dedup.
        assert stats.bytes_unique <= 200
        out, _ = RestoreClient(cloud).restore_to_memory(5)
        assert out == files2


class TestDirectorySourceEndToEnd:
    def test_real_directory_to_real_store(self, tmp_path, rng):
        src = tmp_path / "data"
        (src / "docs").mkdir(parents=True)
        payload = rng.integers(0, 256, 25_000, dtype=np.uint8).tobytes()
        (src / "docs" / "f.doc").write_bytes(payload)
        (src / "note.txt").write_bytes(b"hello world")
        store = LocalDirectoryBackend(tmp_path / "cloud")
        client = BackupClient(store, aa_dedupe_config(
            container_size=32 * KIB))
        stats = client.backup(DirectorySource(src))
        assert stats.files_total == 2
        out_dir = tmp_path / "restored"
        restore_session(store, 0, out_dir)
        assert (out_dir / "docs" / "f.doc").read_bytes() == payload
        assert (out_dir / "note.txt").read_bytes() == b"hello world"
        assert DirectorySource(src).total_bytes() == 25_000 + 11

    def test_killed_put_leaves_no_object(self, tmp_path, monkeypatch):
        # A PUT killed between write and rename leaves its temp file in
        # the store directory.  It is not an object: it is not listed,
        # scrub stays clean and container numbering ignores it.
        import os
        store = LocalDirectoryBackend(tmp_path / "cloud")
        client = BackupClient(store, aa_dedupe_config(
            container_size=32 * KIB))
        client.backup(MemorySource({"f.doc": np.random.default_rng(
            9).integers(0, 256, 25_000, dtype=np.uint8).tobytes()}))
        listed = store.list("")
        next_id = client._resume_container_id()

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        monkeypatch.setattr(os, "unlink", lambda path: None)
        with pytest.raises(KeyboardInterrupt):
            store.put(naming.container_key(next_id), b"torn")
        monkeypatch.undo()
        on_disk = list((tmp_path / "cloud" / "containers").iterdir())
        assert len(on_disk) == len(store.list(naming.CONTAINER_PREFIX)) + 1
        assert store.list("") == listed
        assert scrub_cloud(store).clean
        assert client._resume_container_id() == next_id
