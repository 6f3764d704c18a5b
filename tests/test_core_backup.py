"""Integration tests for the backup engine: the AA-Dedupe pipeline and
its observable behaviours (filtering, chunking policy, dedup, containers,
the first session open, manifests)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import all_scheme_configs
from repro.classify.filetype import Category
from repro.cloud import InMemoryBackend
from repro.core import (
    BackupClient,
    MemorySource,
    RestoreClient,
    aa_dedupe_config,
)
from repro.core import naming
from repro.core.options import SchemeConfig
from repro.errors import ConfigError
from repro.util.units import KIB


@pytest.fixture()
def dataset(rng):
    def blob(n):
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    doc = blob(60_000)
    files = {
        "music/song.mp3": blob(50_000),
        "music/copy.mp3": None,
        "docs/report.doc": doc,
        "docs/report_v2.doc": doc[:30_000] + b"EDITED!" + doc[30_000:],
        "vm/image.vmdk": blob(100_000),
        "misc/readme.txt": blob(12_000),
        "misc/tiny.txt": blob(512),
        "misc/empty.log": b"",
    }
    files["music/copy.mp3"] = files["music/song.mp3"]
    return files


def small_config(**overrides):
    """AA config with a small container so sealing happens in tests."""
    base = dict(container_size=64 * KIB)
    base.update(overrides)
    return aa_dedupe_config(**base)


class TestAAPipeline:
    def test_roundtrip_bit_exact(self, dataset):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(dataset))
        restored, report = RestoreClient(cloud).restore_to_memory(0)
        assert restored == dataset
        assert report.files_restored == len(dataset)
        assert not report.corrupt

    def test_tiny_files_filtered(self, dataset):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        stats = client.backup(MemorySource(dataset))
        # tiny.txt (512 B) and empty.log are under the 10 KiB threshold.
        assert stats.files_tiny == 2
        manifest = client._prev_manifest
        assert manifest.get("misc/tiny.txt").tiny
        assert not manifest.get("misc/readme.txt").tiny

    def test_duplicate_file_dedups_whole(self, dataset):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        stats = client.backup(MemorySource(dataset))
        # copy.mp3 is byte-identical: WFC dedup removes its 50 kB.
        assert stats.bytes_saved >= 50_000

    def test_intra_session_cdc_dedup(self, dataset):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        stats = client.backup(MemorySource(dataset))
        # report_v2.doc shares most chunks with report.doc via CDC.
        manifest = client._prev_manifest
        refs1 = {r.fingerprint for r in manifest.get("docs/report.doc").refs}
        refs2 = {r.fingerprint
                 for r in manifest.get("docs/report_v2.doc").refs}
        assert len(refs1 & refs2) >= 1
        assert stats.dedup_ratio > 1.0

    def test_unchanged_second_session_mostly_dedups(self, dataset):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(dataset))
        stats2 = client.backup(MemorySource(dataset))
        # Everything except re-packed tiny files dedups.
        tiny_bytes = 512  # empty.log contributes nothing
        assert stats2.bytes_unique == tiny_bytes
        restored, _ = RestoreClient(cloud).restore_to_memory(1)
        assert restored == dataset

    def test_app_aware_index_populated_per_app(self, dataset):
        client = BackupClient(InMemoryBackend(), small_config())
        client.backup(MemorySource(dataset))
        sizes = {app: len(client.index.subindex(app))
                 for app in client.index.apps}
        assert "mp3" in sizes and "doc" in sizes and "vmdk" in sizes
        # WFC: one entry per unique mp3 file.
        assert sizes["mp3"] == 1
        # SC on 100 kB vmdk at 8 KiB: 13 chunks.
        assert sizes["vmdk"] == 13

    def test_containers_uploaded_and_padded(self, dataset):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(dataset))
        container_keys = cloud.list(naming.CONTAINER_PREFIX)
        assert container_keys
        # Non-oversized containers are exactly container_size.
        sizes = {len(cloud.get(k)) for k in container_keys}
        assert 64 * KIB in sizes

    def test_manifest_uploaded(self, dataset):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(dataset))
        assert cloud.exists(naming.manifest_key(0))

    def test_index_synced_to_cloud(self, dataset):
        # The manifest carries the index: a new process's first session
        # open rebuilds it, so nothing stored before is stored again.
        cloud = InMemoryBackend()
        BackupClient(cloud, small_config()).backup(MemorySource(dataset))
        resumed = BackupClient(cloud, small_config())
        stats = resumed.backup(MemorySource(dataset))
        assert stats.session_id == 1
        assert stats.chunks_unique == 0
        assert any("mp3" in app for app in resumed.index.apps)

    @pytest.mark.parametrize("config", all_scheme_configs(),
                             ids=lambda c: c.name)
    def test_construction_makes_no_request(self, dataset, config):
        # A client reads the store only when a session opens.
        cloud = InMemoryBackend()
        BackupClient(cloud, config).backup(MemorySource(dataset))
        before = replace(cloud.stats)
        BackupClient(cloud, config)
        BackupClient(cloud, config, first_container_id=7)
        assert cloud.stats == before

    def test_index_sync_disabled(self, dataset):
        # No index replica is ever written: containers and the manifest.
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(dataset))
        assert {key.split("/")[0] for key in cloud.list("")} == {
            "containers", "manifests"}

    def test_op_accounting(self, dataset):
        client = BackupClient(InMemoryBackend(), small_config())
        stats = client.backup(MemorySource(dataset))
        ops = stats.ops
        # Compressed bytes hashed with rabin12, static with md5,
        # dynamic with sha1 (+ tiny files with sha1).
        assert ops.hashed_bytes["rabin12"] == 100_000
        assert ops.hashed_bytes["md5"] == 100_000
        assert ops.hashed_bytes["sha1"] >= 12_000
        assert ops.cdc_scanned_bytes >= 120_000
        assert ops.chunks_produced > 15
        assert ops.index_lookups == ops.chunks_produced
        assert ops.read_bytes == sum(len(v) for v in dataset.values())

    def test_dedup_ratio_definition(self, dataset):
        client = BackupClient(InMemoryBackend(), small_config())
        stats = client.backup(MemorySource(dataset))
        assert stats.dedup_ratio == pytest.approx(
            stats.bytes_scanned / stats.bytes_unique)
        assert stats.bytes_saved == stats.bytes_scanned - stats.bytes_unique

    def test_pipelined_uploads_equivalent(self, dataset):
        plain_cloud = InMemoryBackend()
        BackupClient(plain_cloud, small_config()).backup(
            MemorySource(dataset))
        piped_cloud = InMemoryBackend()
        BackupClient(piped_cloud, small_config(pipeline_uploads=True)
                     ).backup(MemorySource(dataset))
        r1, _ = RestoreClient(plain_cloud).restore_to_memory(0)
        r2, _ = RestoreClient(piped_cloud).restore_to_memory(0)
        assert r1 == r2 == dataset

    def test_explicit_session_ids(self, dataset):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        stats = client.backup(MemorySource(dataset), session_id=41)
        assert stats.session_id == 41
        assert cloud.exists(naming.manifest_key(41))
        stats2 = client.backup(MemorySource(dataset))
        assert stats2.session_id == 42

    def test_rerunning_old_session_id_never_rewinds_counter(self, dataset):
        # Regression: backup(session_id=k) used to set _next_session to
        # k+1 unconditionally, so re-running an *older* explicit id made
        # the next auto id collide with — and silently overwrite — a
        # newer manifest.
        cloud = InMemoryBackend()
        client = BackupClient(cloud, small_config())
        client.backup(MemorySource(dataset))            # auto id 0
        client.backup(MemorySource(dataset))            # auto id 1
        newer = cloud.get(naming.manifest_key(1))
        client.backup(MemorySource(dataset), session_id=0)  # re-run old
        stats = client.backup(MemorySource(dataset))    # auto id again
        assert stats.session_id == 2
        assert cloud.get(naming.manifest_key(1)) == newer
        assert naming.session_ids(cloud) == [0, 1, 2]


class TestConfigValidation:
    def test_bad_index_layout(self):
        with pytest.raises(ConfigError):
            SchemeConfig(name="x", index_layout="nope")

    def test_incremental_needs_no_policy(self):
        cfg = SchemeConfig(name="inc", incremental_only=True,
                           tiny_file_threshold=0, use_containers=False)
        assert cfg.incremental_only

    def test_namespace_routing(self):
        cfg = aa_dedupe_config()
        policy = cfg.policy_table[Category.COMPRESSED]
        assert cfg.index_namespace("mp3", policy) == "mp3"
        global_cfg = cfg.with_(index_layout="global")
        assert global_cfg.index_namespace("mp3", policy) == "global"
        tier_cfg = cfg.with_(index_layout="tier")
        assert tier_cfg.index_namespace("mp3", policy) == "wfc"

    def test_with_override(self):
        cfg = aa_dedupe_config().with_(container_size=128 * KIB)
        assert cfg.container_size == 128 * KIB
        assert cfg.name == "AA-Dedupe"
