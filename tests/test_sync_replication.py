"""Dedup continuity across processes, from the manifests alone.

A session persists one metadata object, its manifest.  A new client's
first session open rebuilds the chunk index from the retained manifests
and takes the newest as its stat cache, so a dedup hit or a stat-cache
replay writes nothing, and an unchanged source costs one PUT.
"""

import numpy as np
import pytest

from repro.baselines import all_scheme_configs, build_scheme, sam_config
from repro.cloud import InMemoryBackend
from repro.core import (BackupClient, Manifest, MemorySource,
                        RestoreClient, aa_dedupe_config, naming)
from repro.core.scrub import scrub_cloud

FILES = {name: np.random.default_rng(i).integers(
    0, 256, 40_000, dtype=np.uint8).tobytes()
    for i, name in enumerate(["docs/a.doc", "music/b.mp3", "vm/c.vmdk"])}
MTIMES = dict.fromkeys(FILES, 1)


class _PutLog(InMemoryBackend):
    """Records the key of every PUT."""

    def __init__(self) -> None:
        super().__init__()
        self.put_keys = []

    def _put(self, key, data):
        self.put_keys.append(key)
        super()._put(key, data)


def _resumed(cloud, config) -> BackupClient:
    """A fresh client after its first session open."""
    client = BackupClient(cloud, config)
    warnings = []
    client._open(warnings)
    assert warnings == []
    return client


class TestDedupHitIsARead:
    @pytest.mark.parametrize("stat_cache", [False, True])
    def test_unchanged_source_puts_no_index_key(self, stat_cache):
        # backup()'s own open finds the epoch unchanged and keeps the
        # index and stat cache the first open rebuilt.
        cloud = _PutLog()
        config = aa_dedupe_config(stat_cache=stat_cache)
        BackupClient(cloud, config).backup(MemorySource(FILES, MTIMES))
        before = len(cloud.put_keys)
        _resumed(cloud, config).backup(MemorySource(FILES, MTIMES))
        assert cloud.put_keys[before:] == [naming.manifest_key(1)]


@pytest.mark.parametrize("config", [
    *all_scheme_configs(), aa_dedupe_config(stat_cache=False)],
    ids=[*(c.name for c in all_scheme_configs()), "AA-Dedupe-no-stat-cache"])
def test_resumed_unchanged_source_puts_only_the_manifest(config):
    # A fresh client's first session: a dedup hit is a read, a replay
    # writes nothing, and no index key is ever put.
    cloud = _PutLog()
    BackupClient(cloud, config).backup(MemorySource(FILES, MTIMES))
    before = len(cloud.put_keys)
    stats = BackupClient(cloud, config).backup(MemorySource(FILES, MTIMES))
    assert stats.session_id == 1
    assert stats.bytes_unique == 0
    assert stats.put_requests == 1
    assert cloud.put_keys[before:] == [naming.manifest_key(1)]


def test_newest_manifest_of_another_scheme_builds_no_stat_cache():
    cloud = InMemoryBackend()
    BackupClient(cloud, aa_dedupe_config()).backup(
        MemorySource(FILES, MTIMES), session_id=0)
    BackupClient(cloud, sam_config()).backup(
        MemorySource(FILES, MTIMES), session_id=1)
    client = _resumed(cloud, aa_dedupe_config())
    assert client._prev_manifest is None
    assert len(client.index) > 0  # session 0's refs still dedup
    stats = client.backup(MemorySource(FILES, MTIMES))
    assert stats.files_unchanged == 0
    assert stats.bytes_unique == 0
    assert RestoreClient(cloud).restore_to_memory(2)[0] == FILES


#: A whole file no larger than one CDC chunk: its whole-file and its
#: chunk fingerprints coincide across schemes.
_SMALL = {"docs/small.doc": np.random.default_rng(9).integers(
    0, 256, 1_500, dtype=np.uint8).tobytes()}


@pytest.mark.parametrize("writer, resumer", [
    ("jungledisk", "avamar"), ("avamar", "aa-dedupe"),
    ("aa-dedupe", "backuppc")])
def test_resume_skips_refs_the_scheme_cannot_address(writer, resumer):
    # A store two schemes share holds refs the resuming scheme stores
    # differently (a whole-file object, a standalone chunk, a container
    # extent); indexing them would rebuild refs to objects that do not
    # exist.
    files = {**FILES, **_SMALL}
    cloud = InMemoryBackend()
    BackupClient(cloud, build_scheme(writer)).backup(MemorySource(files))
    client = _resumed(cloud, build_scheme(resumer))
    assert len(client.index) == 0
    client.backup(MemorySource(files))
    assert RestoreClient(cloud).restore_to_memory(1)[0] == files
    assert scrub_cloud(cloud).clean


def test_newest_session_wins_a_repeated_fingerprint():
    # Two sessions backed up by clients that never saw each other's
    # manifests (here: into two stores, then merged) store every chunk
    # twice, so the store names each fingerprint at two locations.
    cloud = InMemoryBackend()
    config = aa_dedupe_config(stat_cache=False)
    for session_id, first_container_id in ((0, 0), (1, 100)):
        alone = InMemoryBackend()
        BackupClient(alone, config, first_container_id=first_container_id
                     ).backup(MemorySource(FILES), session_id=session_id)
        for key in alone.list(""):
            cloud.put(key, alone.get(key))
    client = _resumed(cloud, config)
    old, new = (Manifest.from_json(cloud.get(naming.manifest_key(sid)))
                .get("docs/a.doc") for sid in (0, 1))
    assert old.refs[0].container_id != new.refs[0].container_id
    entry = client.index.lookup(new.app, new.refs[0].fingerprint)
    assert (entry.container_id, entry.offset) == (
        new.refs[0].container_id, new.refs[0].offset)
