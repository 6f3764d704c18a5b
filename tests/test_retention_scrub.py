"""Tests for retention policies, cloud scrubbing, and client resume."""

import numpy as np
import pytest

from repro.cloud import InMemoryBackend
from repro.core import (BackupClient, MemorySource, RestoreClient,
                        aa_dedupe_config)
from repro.core import naming
from repro.core.scrub import scrub_cloud


class TestContainerIdOf:
    def test_inverse_of_container_key(self):
        for cid in (0, 9, 10**6, 10**11):
            assert naming.container_id_of(naming.container_key(cid)) == cid

    @pytest.mark.parametrize("key", [
        "containers/", "containers/0000000009.k3j2.tmp", "containers/c1",
        "containers/+9", "containers/sub/0000000009",
        "replicas/d0/containers/0000000009", "0000000009", ""])
    def test_keys_that_name_no_container_are_none(self, key):
        assert naming.container_id_of(key) is None


class TestSessionIdOf:
    def test_inverse_of_manifest_key(self):
        for sid in (0, 3, 123456, 10**7):
            assert naming.session_id_of(naming.manifest_key(sid)) == sid

    def test_tenant_and_journal_keys(self):
        assert naming.session_id_of(
            "clients/c001/" + naming.manifest_key(42)) == 42
        assert naming.session_id_of(naming.journal_key(7)) == 7

    @pytest.mark.parametrize("key", [
        "manifests/s1", "manifests/session-.json",
        "manifests/session-abc.json", "manifests/README", ""])
    def test_unparseable_keys_are_none(self, key):
        assert naming.session_id_of(key) is None

    def test_session_ids_lists_sorted_and_skips_strays(self):
        cloud = InMemoryBackend()
        for sid in (12, 3, 7):
            cloud.put(naming.manifest_key(sid), b"{}")
        cloud.put("manifests/README", b"not a session")
        assert naming.session_ids(cloud) == [3, 7, 12]
        assert naming.session_ids(InMemoryBackend()) == []


@pytest.fixture()
def populated_cloud(rng):
    files = {
        "m/a.mp3": rng.integers(0, 256, 30_000, dtype=np.uint8).tobytes(),
        "d/r.doc": rng.integers(0, 256, 25_000, dtype=np.uint8).tobytes(),
        "t/t.txt": b"small",
    }
    cloud = InMemoryBackend()
    client = BackupClient(cloud, aa_dedupe_config(container_size=32 * 1024))
    client.backup(MemorySource(files))
    return cloud, client, files


class TestScrub:
    def test_clean_store(self, populated_cloud):
        cloud, _client, _files = populated_cloud
        report = scrub_cloud(cloud)
        assert report.clean
        assert report.containers_checked >= 1
        assert report.extents_verified >= 3
        assert report.manifests_checked == 1
        assert report.refs_resolved >= 3

    def test_detects_corrupt_container(self, populated_cloud):
        cloud, _client, _files = populated_cloud
        key = cloud.list(naming.CONTAINER_PREFIX)[0]
        blob = bytearray(cloud._objects[key])
        blob[100] ^= 0x55
        cloud._objects[key] = bytes(blob)
        report = scrub_cloud(cloud)
        assert not report.clean
        assert any("CRC" in p or key in p for p in report.problems)

    def test_detects_missing_container(self, populated_cloud):
        cloud, _client, _files = populated_cloud
        key = cloud.list(naming.CONTAINER_PREFIX)[0]
        cloud._objects.pop(key)
        report = scrub_cloud(cloud)
        assert not report.clean
        assert any("missing container" in p for p in report.problems)

    def test_fast_mode_skips_rehash(self, populated_cloud):
        cloud, _client, _files = populated_cloud
        report = scrub_cloud(cloud, verify_extents=False)
        assert report.clean
        assert report.extents_verified == 0

    def test_detects_missing_object(self, rng):
        from repro.baselines import avamar_config
        files = {"x.doc": rng.integers(0, 256, 30_000,
                                       dtype=np.uint8).tobytes()}
        cloud = InMemoryBackend()
        BackupClient(cloud, avamar_config()).backup(MemorySource(files))
        victim = cloud.list(naming.CHUNK_PREFIX)[0]
        cloud._objects.pop(victim)
        report = scrub_cloud(cloud)
        assert any("missing object" in p for p in report.problems)


class TestResumeFromCloud:
    """A fresh client resumes from the store at its first session
    open: nothing to call first."""

    def test_stateless_dedup_continuity(self, populated_cloud):
        cloud, old_client, files = populated_cloud
        fresh = BackupClient(cloud, old_client.config)
        stats = fresh.backup(MemorySource(files))
        assert stats.session_id == 1
        assert stats.chunks_unique == 0  # everything dedups
        assert len(fresh.index) == len(old_client.index)

    def test_resume_empty_store(self):
        client = BackupClient(InMemoryBackend(), aa_dedupe_config())
        warnings = []
        client._open(warnings)
        assert warnings == []
        assert len(client.index) == 0
        assert client._next_session == 0

    def test_fresh_client_never_overwrites_a_retained_session(self, rng):
        def blob(n):
            return rng.integers(0, 256, n, dtype=np.uint8).tobytes()

        snapshots = [{"d/r.doc": blob(25_000), "t/t.txt": b"first"},
                     {"m/a.mp3": blob(30_000), "t/t.txt": b"second"},
                     {"d/new.doc": blob(20_000), "t/t.txt": b"third"}]
        cloud = InMemoryBackend()
        config = aa_dedupe_config(container_size=32 * 1024)
        old = BackupClient(cloud, config)
        for files in snapshots[:2]:
            old.backup(MemorySource(files))
        stats = BackupClient(cloud, config).backup(
            MemorySource(snapshots[2]))
        assert stats.session_id == 2
        for session_id, files in enumerate(snapshots):
            restored, _ = RestoreClient(cloud).restore_to_memory(session_id)
            assert restored == files
        assert scrub_cloud(cloud).clean

    def test_incremental_resume_uses_latest_manifest(self, rng):
        from repro.baselines import jungle_disk_config
        files = {"a.txt": b"hello world content"}
        mt = {"a.txt": 100}
        cloud = InMemoryBackend()
        BackupClient(cloud, jungle_disk_config()).backup(
            MemorySource(files, mt))
        fresh = BackupClient(cloud, jungle_disk_config())
        stats = fresh.backup(MemorySource(files, mt))
        assert stats.files_unchanged == 1
        assert stats.bytes_unique == 0
