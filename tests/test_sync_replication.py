"""Regression tests for index-replication staleness (ISSUE 3).

Two bugs made cloud index replicas silently stale:

* ``push`` skipped any subindex whose entry *count* matched the last
  push, so a last-writer-wins re-insert that moved a fingerprint never
  re-replicated;
* ``pull`` recorded the *merged local* size as pushed, so local-only
  entries that survived a recovery were treated as already replicated
  and never reached the cloud.

Replication now keys off per-subindex mutation generations plus a
content digest of what the replica actually holds.
"""

import hashlib

import numpy as np
import pytest

from repro.cloud import InMemoryBackend
from repro.core import BackupClient, MemorySource, aa_dedupe_config, naming
from repro.core.sync import IndexSynchronizer
from repro.index import AppAwareIndex, IndexEntry


def fp(i: int) -> bytes:
    return hashlib.sha1(str(i).encode()).digest()


def entry(i: int, container_id: int | None = None) -> IndexEntry:
    return IndexEntry(fingerprint=fp(i),
                      container_id=(i // 8 if container_id is None
                                    else container_id),
                      offset=i * 64, length=64)


def replica_containers(cloud, app: str) -> dict:
    blob = cloud.get(naming.index_key(app))
    record = IndexEntry.RECORD_SIZE
    entries = [IndexEntry.unpack(blob[pos:pos + record])
               for pos in range(0, len(blob), record)]
    return {e.fingerprint: e.container_id for e in entries}


@pytest.fixture
def populated():
    cloud = InMemoryBackend()
    index = AppAwareIndex()
    for i in range(5):
        index.insert("doc", entry(i))
    for i in range(10, 13):
        index.insert("mp3", entry(i))
    sync = IndexSynchronizer(cloud)
    assert sync.push(index) == 2
    return cloud, index, sync


class TestRefcountReplication:
    def test_only_dirty_subindices_reupload(self, populated):
        # Exactly the mutated subindex replicates; the clean one skips.
        # The mutation keeps the entry count (a moved fingerprint), which
        # the old size heuristic could not see.
        cloud, index, sync = populated
        puts_before = cloud.stats.put_requests
        index.insert("mp3", entry(11, container_id=9))
        assert index.sizes()["mp3"] == 3  # count unchanged
        assert sync.push(index) == 1
        assert cloud.stats.put_requests - puts_before == 1
        assert replica_containers(cloud, "mp3")[fp(11)] == 9

    def test_clean_push_uploads_nothing(self, populated):
        cloud, _index, sync = populated
        puts_before = cloud.stats.put_requests
        assert sync.push(_index) == 0
        assert cloud.stats.put_requests == puts_before

    def test_identical_reinsert_skips_upload(self, populated):
        # A mutation that leaves the serialised content byte-identical
        # (re-insert of the same entry) is detected by the digest and
        # does not burn an upload.
        cloud, index, sync = populated
        index.insert("doc", index.lookup("doc", fp(1)))
        puts_before = cloud.stats.put_requests
        assert sync.push(index) == 0
        assert cloud.stats.put_requests == puts_before


class TestPullAccounting:
    def test_pull_into_empty_is_clean(self, populated):
        # Recovery into a fresh index: local equals the replica, so the
        # next push has nothing to do.
        cloud, index, _sync = populated
        fresh = AppAwareIndex()
        resync = IndexSynchronizer(cloud)
        assert resync.pull(fresh) == len(index)
        assert resync.push(fresh) == 0

    def test_local_survivors_reach_cloud_after_pull(self, populated):
        # THE regression: pull into a non-empty subindex used to record
        # the merged size as pushed, so local-only entries never
        # replicated on the next push.
        cloud, _index, _sync = populated
        survivor = AppAwareIndex()
        survivor.insert("doc", entry(99))  # local-only, not in replica
        resync = IndexSynchronizer(cloud)
        resync.pull(survivor)
        assert survivor.lookup("doc", fp(99)) is not None
        assert resync.push(survivor) == 1  # doc re-replicates
        assert fp(99) in replica_containers(cloud, "doc")
        # Round-trip: a second recovery sees the survivor.
        rebuilt = AppAwareIndex()
        IndexSynchronizer(cloud).pull(rebuilt)
        assert rebuilt.lookup("doc", fp(99)) == entry(99)

    def test_pull_preserves_newer_local_state(self, populated):
        # Local entries win over replica entries for the same key, and
        # the divergence is pushed back out.
        cloud, _index, _sync = populated
        local = AppAwareIndex()
        local.insert("doc", entry(0, container_id=7))
        resync = IndexSynchronizer(cloud)
        resync.pull(local)
        assert local.lookup("doc", fp(0)).container_id == 7
        assert resync.push(local) == 1
        assert replica_containers(cloud, "doc")[fp(0)] == 7


class _PutLog(InMemoryBackend):
    """Records the key of every PUT."""

    def __init__(self) -> None:
        super().__init__()
        self.put_keys = []

    def _put(self, key, data):
        self.put_keys.append(key)
        super()._put(key, data)


class TestDedupHitIsARead:
    """A dedup hit or a stat-cache replay only looks the index up, so a
    session re-replicates exactly the subindices that gained entries."""

    FILES = {name: np.random.default_rng(i).integers(
        0, 256, 40_000, dtype=np.uint8).tobytes()
        for i, name in enumerate(["docs/a.doc", "music/b.mp3",
                                  "vm/c.vmdk"])}

    @staticmethod
    def _index_puts(cloud, client, files, mtimes):
        before = len(cloud.put_keys)
        client.backup(MemorySource(files, mtimes))
        return [k for k in cloud.put_keys[before:]
                if k.startswith(naming.INDEX_PREFIX)]

    @pytest.mark.parametrize("stat_cache", [False, True])
    def test_unchanged_source_puts_no_index_key(self, stat_cache):
        cloud = _PutLog()
        client = BackupClient(cloud, aa_dedupe_config(stat_cache=stat_cache))
        mtimes = dict.fromkeys(self.FILES, 1)
        assert len(self._index_puts(cloud, client, self.FILES, mtimes)) == 3
        assert self._index_puts(cloud, client, self.FILES, mtimes) == []

    def test_one_edited_app_puts_only_its_replica(self):
        cloud = _PutLog()
        client = BackupClient(cloud, aa_dedupe_config())
        mtimes = dict.fromkeys(self.FILES, 1)
        self._index_puts(cloud, client, self.FILES, mtimes)
        edited = dict(self.FILES)
        edited["docs/a.doc"] = bytes(8_000) + edited["docs/a.doc"]
        mtimes["docs/a.doc"] = 2
        doc_label = client.manifests[0].get("docs/a.doc").app
        assert self._index_puts(cloud, client, edited, mtimes) == [
            naming.index_key(doc_label)]
