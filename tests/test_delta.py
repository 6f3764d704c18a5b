"""Tests for the similarity + delta-compression stage (repro.delta).

Covers the codec (hypothesis round-trip properties), sketching, the
bounded similarity index, the end-to-end backup/restore/scrub/GC
integration, delta chains at exactly the depth bound, and the GC
regression that a delta base must stay live while any retained delta
references it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.memory import InMemoryBackend
from repro.container.format import ContainerWriter
from repro.core import naming
from repro.core.backup import BackupClient
from repro.core.gc import collect_garbage
from repro.core.options import SchemeConfig, aa_dedupe_config
from repro.core.recipe import ChunkRef, FileEntry, Manifest
from repro.core.restore import RestoreClient
from repro.core.scrub import scrub_cloud
from repro.core.source import MemorySource
from repro.delta import (
    DeltaError,
    SimilarityIndex,
    apply_delta,
    compute_sketch,
    delta_target_length,
    encode_delta,
    encode_if_worthwhile,
    validate_delta,
)
from repro.delta.sketch import DEFAULT_FEATURES, DEFAULT_SUPER, _feature_params
from repro.errors import ConfigError, RestoreError
from repro.hashing import get_hash, hash_for_digest_len
from tests.oracles import RollingRabin


def _delta_config(**overrides) -> SchemeConfig:
    base = dict(delta_compress=True, container_size=64 * 1024,
                pad_containers=False)
    base.update(overrides)
    return aa_dedupe_config(**base)


def _edit(data: bytes, seed: int, n_edits: int = 4,
          insert: int = 32) -> bytes:
    """A few in-place edits plus one insertion — document churn."""
    r = np.random.default_rng(seed)
    arr = bytearray(data)
    for _ in range(n_edits):
        pos = int(r.integers(0, max(1, len(arr) - 24)))
        arr[pos:pos + 16] = r.integers(0, 256, 16, dtype=np.uint8).tobytes()
    pos = int(r.integers(0, len(arr) + 1))
    patch = r.integers(0, 256, insert, dtype=np.uint8).tobytes()
    return bytes(arr[:pos]) + patch + bytes(arr[pos:])


# ----------------------------------------------------------------------
class TestDeltaCodec:
    @given(base=st.binary(max_size=4096), target=st.binary(max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, base, target):
        delta = encode_delta(base, target)
        assert apply_delta(base, delta) == target
        assert validate_delta(delta) == len(target)
        assert delta_target_length(delta) == len(target)

    @given(base=st.binary(max_size=2048))
    @settings(max_examples=25, deadline=None)
    def test_empty_target(self, base):
        delta = encode_delta(base, b"")
        assert apply_delta(base, delta) == b""
        # An empty target is never "worth" a delta extent.
        assert encode_if_worthwhile(base, b"") is None

    @given(data=st.binary(min_size=64, max_size=4096))
    @settings(max_examples=25, deadline=None)
    def test_identical_target_collapses(self, data):
        delta = encode_delta(data, data)
        assert apply_delta(data, delta) == data
        # Self-delta is almost all copy ops: tiny versus the target.
        assert len(delta) < max(64, len(data) // 4)
        assert encode_if_worthwhile(data, data) is not None

    def test_fully_dissimilar_rejected(self, rng):
        base = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        target = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        delta = encode_delta(base, target)
        assert apply_delta(base, delta) == target  # still correct...
        assert encode_if_worthwhile(base, target) is None  # ...not worth it

    def test_cutoff_boundary(self, rng):
        base = rng.integers(0, 256, 8192, dtype=np.uint8).tobytes()
        target = base[:4000] + b"\x01\x02\x03" + base[4000:]
        blob = encode_if_worthwhile(base, target, cutoff=0.5)
        assert blob is not None and len(blob) <= 0.5 * len(target)
        assert encode_if_worthwhile(base, target, cutoff=1e-9) is None

    def test_apply_rejects_garbage(self):
        with pytest.raises(DeltaError):
            apply_delta(b"base", b"not a delta blob")
        with pytest.raises(DeltaError):
            validate_delta(b"XXXX\x00\x00\x00\x00")

    def test_apply_rejects_out_of_range_copy(self, rng):
        base = rng.integers(0, 256, 1024, dtype=np.uint8).tobytes()
        delta = bytearray(encode_delta(base, base))
        # Corrupt the first copy op's offset far past the base.
        delta[9:13] = (2 ** 31).to_bytes(4, "big")
        with pytest.raises(DeltaError):
            apply_delta(base, bytes(delta))


# ----------------------------------------------------------------------
class TestSketchAndSimIndex:
    def test_sketch_deterministic_and_resemblance(self, rng):
        data = rng.integers(0, 256, 16_000, dtype=np.uint8).tobytes()
        near = _edit(data, 5)
        far = rng.integers(0, 256, 16_000, dtype=np.uint8).tobytes()
        assert compute_sketch(data) == compute_sketch(data)
        features = set(compute_sketch(data).super_features)
        assert features & set(compute_sketch(near).super_features)
        assert not features & set(compute_sketch(far).super_features)

    def test_short_chunk_sketch_matches_rolling_oracle(self):
        # Chunks up to one window long take the whole-buffer fallback;
        # both it and the one-window scan must equal the sketch built
        # from the streaming reference's fingerprints.
        md5 = get_hash("md5")
        a, b = _feature_params(DEFAULT_FEATURES)
        group = DEFAULT_FEATURES // DEFAULT_SUPER
        data = np.random.default_rng(48).integers(
            0, 256, 48, dtype=np.uint8).tobytes()
        for n in range(49):
            chunk = data[:n]
            fps = [RollingRabin.of(chunk[:end], window=48)
                   for end in range(min(n, 48), n + 1)]
            with np.errstate(over="ignore"):
                features = [max((int(x) * int(ai) + int(bi)) % 2**64
                                for x in fps) for ai, bi in zip(a, b)]
            expected = tuple(
                md5.hash(np.array(features[g * group:(g + 1) * group],
                                  dtype=np.uint64).tobytes())[:8]
                for g in range(DEFAULT_SUPER))
            assert compute_sketch(chunk).super_features == expected, n

    def test_probe_insert_discard(self, rng):
        data = rng.integers(0, 256, 8_000, dtype=np.uint8).tobytes()
        sketch = compute_sketch(data)
        sim = SimilarityIndex(capacity=64)
        assert sim.probe("doc", sketch) is None
        sim.insert("doc", sketch, b"fp-1")
        assert sim.probe("doc", compute_sketch(_edit(data, 9))) == b"fp-1"
        # Namespaces are isolated (application-aware).
        assert sim.probe("ppt", sketch) is None
        sim.discard("doc", b"fp-1")
        assert sim.probe("doc", sketch) is None

    def test_lru_eviction_bounded(self, rng):
        sim = SimilarityIndex(capacity=6)
        sketches = []
        for i in range(8):
            data = rng.integers(0, 256, 6_000, dtype=np.uint8).tobytes()
            sk = compute_sketch(data)
            sketches.append((sk, data))
            sim.insert("doc", sk, f"fp-{i}".encode())
        # Six slots hold the newest two sketches' super-features: the
        # oldest insert is evicted, the most recent is still resident.
        assert sim.probe("doc", sketches[0][0]) is None
        assert sim.probe("doc", sketches[-1][0]) == b"fp-7"


# ----------------------------------------------------------------------
class TestDeltaBackupIntegration:
    def _versions(self, rng, n=3, size=60_000):
        v = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        out = [v]
        for i in range(1, n):
            v = _edit(v, 100 + i)
            out.append(v)
        return out

    def test_versioned_doc_stores_deltas_and_restores(self, rng):
        versions = self._versions(rng)
        cloud = InMemoryBackend()
        client = BackupClient(cloud, _delta_config())
        stats = [client.backup(MemorySource({"report.doc": v}))
                 for v in versions]
        client.close()
        assert stats[0].chunks_delta == 0  # nothing to resemble yet
        assert stats[1].chunks_delta > 0
        assert stats[1].delta_bytes_saved > 0
        assert stats[1].bytes_unique < len(versions[1]) // 10
        assert stats[1].ops.sketch_bytes > 0
        assert stats[1].ops.delta_encode_bytes > 0
        restorer = RestoreClient(cloud)
        for sid, want in enumerate(versions):
            out, report = restorer.restore_to_memory(sid)
            assert out["report.doc"] == want
            if sid:
                assert report.deltas_applied > 0
        report = scrub_cloud(cloud)
        assert report.clean, report.problems
        assert report.deltas_validated > 0

    def test_delta_uploads_fewer_bytes_than_exact(self, rng):
        versions = self._versions(rng, n=4)
        uploaded = {}
        for name, cfg in [("delta", _delta_config()),
                          ("exact", _delta_config(delta_compress=False))]:
            cloud = InMemoryBackend()
            client = BackupClient(cloud, cfg)
            for v in versions:
                client.backup(MemorySource({"report.doc": v}))
            client.close()
            uploaded[name] = cloud.stats.bytes_uploaded
        assert uploaded["delta"] < uploaded["exact"]

    def test_repeat_of_delta_chunk_reuses_ref(self, rng):
        v0, v1 = self._versions(rng, n=2)
        cloud = InMemoryBackend()
        client = BackupClient(cloud, _delta_config())
        client.backup(MemorySource({"a.doc": v0}))
        s1 = client.backup(MemorySource({"a.doc": v1}))
        assert s1.chunks_delta > 0
        # Same content again: every chunk dedups (exact or delta-ref
        # reuse); no new payload bytes move.
        s2 = client.backup(MemorySource({"a.doc": v1}))
        client.close()
        assert s2.bytes_unique == 0
        assert s2.chunks_delta == 0
        out, _ = RestoreClient(cloud).restore_to_memory(2)
        assert out["a.doc"] == v1

    def test_chain_depth_capped_by_config(self, rng, monkeypatch):
        monkeypatch.setattr("repro.delta.stage.MAX_CHAIN", 2)
        versions = self._versions(rng, n=6)
        cloud = InMemoryBackend()
        client = BackupClient(cloud, _delta_config())
        for v in versions:
            client.backup(MemorySource({"a.doc": v}))
        client.close()
        deepest = 0
        for sid in range(len(versions)):
            manifest = Manifest.from_json(
                cloud.get(naming.manifest_key(sid)))
            for entry in manifest:
                for ref in entry.refs:
                    deepest = max(deepest, ref.chain_depth())
        assert deepest <= 2
        out, _ = RestoreClient(cloud).restore_to_memory(len(versions) - 1)
        assert out["a.doc"] == versions[-1]

    def test_object_mode_delta_round_trip(self, rng):
        v0, v1 = self._versions(rng, n=2, size=40_000)
        cloud = InMemoryBackend()
        client = BackupClient(cloud, _delta_config(use_containers=False))
        client.backup(MemorySource({"a.txt": v0}))
        s1 = client.backup(MemorySource({"a.txt": v1}))
        client.close()
        assert s1.chunks_delta > 0
        assert cloud.list(naming.DELTA_PREFIX)
        out, _ = RestoreClient(cloud).restore_to_memory(1)
        assert out["a.txt"] == v1
        assert scrub_cloud(cloud).clean

    def test_wfc_compressed_categories_bypass_delta(self, rng):
        blob = rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
        cloud = InMemoryBackend()
        client = BackupClient(cloud, _delta_config())
        client.backup(MemorySource({"a.mp3": blob}))
        s1 = client.backup(MemorySource({"a.mp3": _edit(blob, 3)}))
        client.close()
        assert s1.chunks_delta == 0
        assert s1.ops.sketch_bytes == 0

    def test_delta_incompatible_with_encryption(self):
        with pytest.raises(ConfigError):
            aa_dedupe_config(delta_compress=True, encrypt_chunks=True)

    def test_golden_accounting_unchanged_without_delta(self):
        # Delta off by default: the flag must not exist-cost anything.
        assert aa_dedupe_config().delta_compress is False


# ----------------------------------------------------------------------
def _store_chain(cloud, depth: int, rng) -> tuple:
    """Hand-build a delta chain of exactly ``depth`` hops as standalone
    objects and a manifest for its target; returns (target_bytes, ref)."""
    sha1 = get_hash("sha1")
    version = rng.integers(0, 256, 12_000, dtype=np.uint8).tobytes()
    fp = sha1.hash(version)
    cloud.put(naming.chunk_key(fp), version)
    ref = ChunkRef(fingerprint=fp, length=len(version),
                   object_key=naming.chunk_key(fp))
    for i in range(depth):
        nxt = _edit(version, 300 + i)
        blob = encode_delta(version, nxt)
        digest = sha1.hash(blob)
        cloud.put(naming.delta_key(digest), blob)
        ref = ChunkRef(fingerprint=sha1.hash(nxt), length=len(nxt),
                       object_key=naming.delta_key(digest),
                       stored_length=len(blob), delta_base=ref)
        version = nxt
    manifest = Manifest(0, "test", created=1.0)
    manifest.add(FileEntry(path="chain.doc", size=len(version),
                           mtime_ns=0, app="doc", category="uncompressed",
                           refs=[ref]))
    cloud.put(naming.manifest_key(0),
              manifest.to_json().encode("utf-8"))
    return version, ref


class _GetLog(InMemoryBackend):
    """Records the key of every read."""

    def __init__(self) -> None:
        super().__init__()
        self.gets: list = []

    def _get(self, key):
        self.gets.append(key)
        return super()._get(key)


def _container_chain(cloud, rng) -> tuple:
    """Hand-build a two-hop delta chain across three containers: the
    base in container 0, the delta base -> mid in container 1 and the
    delta mid -> head in container 2.  Returns (versions, refs), each
    ordered base, mid, head."""
    sha1 = get_hash("sha1")
    base = rng.integers(0, 256, 12_000, dtype=np.uint8).tobytes()
    versions = [base, _edit(base, 401)]
    versions.append(_edit(versions[1], 402))
    refs = []
    for cid, version in enumerate(versions):
        writer = ContainerWriter(cid, 64 * 1024)
        if cid == 0:
            stored, extra = version, {}
        else:
            stored = encode_delta(versions[cid - 1], version)
            extra = dict(stored_length=len(stored), delta_base=refs[-1])
        offset = writer.append(sha1.hash(stored), stored)
        cloud.put(naming.container_key(cid), writer.seal(False))
        refs.append(ChunkRef(fingerprint=sha1.hash(version),
                             length=len(version), container_id=cid,
                             offset=offset, **extra))
    return versions, refs


def _put_manifest(cloud, files: dict) -> None:
    """Session 0 whose files are {path: (content, refs)}."""
    manifest = Manifest(0, "test", created=1.0)
    for path, (data, refs) in files.items():
        manifest.add(FileEntry(path=path, size=len(data), mtime_ns=0,
                               app="doc", category="uncompressed",
                               refs=list(refs)))
    cloud.put(naming.manifest_key(0), manifest.to_json().encode("utf-8"))


class TestDeltaChains:
    def test_restore_at_exactly_max_depth(self, rng):
        cloud = InMemoryBackend()
        want, ref = _store_chain(cloud, depth=4, rng=rng)
        assert ref.chain_depth() == 4
        out, report = RestoreClient(
            cloud, max_delta_depth=4).restore_to_memory(0)
        assert out["chain.doc"] == want
        assert report.deltas_applied == 4

    def test_restore_beyond_max_depth_refused(self, rng):
        cloud = InMemoryBackend()
        _store_chain(cloud, depth=4, rng=rng)
        with pytest.raises(RestoreError):
            RestoreClient(cloud,
                          max_delta_depth=3).restore_to_memory(0)

    def test_scrub_flags_overlong_chain(self, rng):
        cloud = InMemoryBackend()
        _store_chain(cloud, depth=4, rng=rng)
        report = scrub_cloud(cloud, max_delta_depth=3)
        assert not report.clean
        assert any("chain deeper" in p for p in report.problems)

    def test_base_container_reached_after_head(self, rng):
        cloud = _GetLog()
        versions, (_base, _mid, head) = _container_chain(cloud, rng)
        _put_manifest(cloud, {"t.doc": (versions[2], [head])})
        cloud.gets.clear()
        out, report = RestoreClient(cloud).restore_to_memory(0)
        assert out == {"t.doc": versions[2]}
        assert cloud.gets[1:] == [naming.container_key(c) for c in (2, 1, 0)]
        assert report.containers_fetched == 3
        assert report.deltas_applied == 2

    def test_base_container_reached_before_head(self, rng):
        cloud = _GetLog()
        versions, (base, _mid, head) = _container_chain(cloud, rng)
        _put_manifest(cloud, {"a.doc": (versions[0], [base]),
                              "t.doc": (versions[2], [head])})
        cloud.gets.clear()
        out, report = RestoreClient(cloud).restore_to_memory(0)
        assert out == {"a.doc": versions[0], "t.doc": versions[2]}
        assert cloud.gets[1:] == [naming.container_key(c) for c in (0, 2, 1)]
        assert report.containers_fetched == 3

    def test_shared_delta_decoded_once(self, rng):
        cloud = _GetLog()
        versions, (_base, mid, head) = _container_chain(cloud, rng)
        _put_manifest(cloud, {
            "a.doc": (versions[2], [head]),
            "b.doc": (versions[2], [head]),
            "c.doc": (versions[2] + versions[1], [head, mid])})
        out, report = RestoreClient(cloud).restore_to_memory(0)
        assert out["a.doc"] == out["b.doc"] == versions[2]
        assert out["c.doc"] == versions[2] + versions[1]
        # Three heads and one mid hop, but each delta decodes once.
        assert report.deltas_applied == 2
        assert report.containers_fetched == 3

    def test_shared_delta_decoded_once_into_directory(self, tmp_path):
        # The streaming sink: a target two files share still decodes
        # once, and every file lands bit-exact.
        cloud = InMemoryBackend()
        versions, (_base, mid, head) = _container_chain(
            cloud, np.random.default_rng(36))
        _put_manifest(cloud, {
            "a.doc": (versions[2], [head]),
            "b.doc": (versions[2], [head]),
            "c.doc": (versions[2] + versions[1], [head, mid])})
        report = RestoreClient(cloud).restore_to_directory(0, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
            "a.doc": versions[2], "b.doc": versions[2],
            "c.doc": versions[2] + versions[1]}
        assert report.deltas_applied == 2
        assert report.containers_fetched == 3


class TestDeltaGCAndScrub:
    def test_gc_keeps_base_referenced_only_by_delta(self, rng):
        """Regression: a delta base referenced *only through delta
        chains* of retained manifests must never be swept."""
        v0 = rng.integers(0, 256, 40_000, dtype=np.uint8).tobytes()
        v1 = _edit(v0, 77)
        cloud = InMemoryBackend()
        client = BackupClient(cloud, _delta_config(use_containers=False))
        client.backup(MemorySource({"a.txt": v0}))
        s1 = client.backup(MemorySource({"a.txt": v1}))
        client.close()
        assert s1.chunks_delta > 0
        # Session 0 (the only direct reference to the bases) is dropped.
        report = collect_garbage(cloud, retain_sessions=[1])
        assert not report.problems
        out, _ = RestoreClient(cloud).restore_to_memory(1)
        assert out["a.txt"] == v1
        assert scrub_cloud(cloud).clean
        # Control: retaining nothing sweeps bases and deltas alike.
        collect_garbage(cloud, retain_sessions=[])
        assert cloud.list(naming.CHUNK_PREFIX) == []
        assert cloud.list(naming.DELTA_PREFIX) == []

    def test_gc_container_mode_keeps_base_container(self, rng):
        v0 = rng.integers(0, 256, 40_000, dtype=np.uint8).tobytes()
        v1 = _edit(v0, 78)
        cloud = InMemoryBackend()
        client = BackupClient(cloud, _delta_config())
        client.backup(MemorySource({"a.doc": v0}))
        client.backup(MemorySource({"a.doc": v1}))
        client.close()
        manifest = Manifest.from_json(cloud.get(naming.manifest_key(1)))
        base_cids = {ref.delta_base.container_id
                     for ref in manifest.iter_refs() if ref.is_delta}
        assert base_cids
        collect_garbage(cloud, retain_sessions=[1])
        for cid in base_cids:
            assert cloud.exists(naming.container_key(cid))
        out, _ = RestoreClient(cloud).restore_to_memory(1)
        assert out["a.doc"] == v1

    def test_gc_refuses_sweep_on_unreadable_manifest(self, rng):
        v0 = rng.integers(0, 256, 40_000, dtype=np.uint8).tobytes()
        cloud = InMemoryBackend()
        client = BackupClient(cloud, _delta_config())
        client.backup(MemorySource({"a.doc": v0}))
        client.backup(MemorySource({"a.doc": _edit(v0, 9)}))
        client.close()
        containers = len(cloud.list(naming.CONTAINER_PREFIX))
        cloud.put(naming.manifest_key(1), b"{corrupt json")
        report = collect_garbage(cloud, retain_sessions=[0, 1])
        assert report.problems
        assert report.deleted_manifests == 0
        assert len(cloud.list(naming.CONTAINER_PREFIX)) == containers

    def test_scrub_flags_dangling_base(self, rng):
        cloud = InMemoryBackend()
        _store_chain(cloud, depth=1, rng=rng)
        # Delete the full base object the delta rebuilds against.
        base_key = cloud.list(naming.CHUNK_PREFIX)[0]
        cloud.delete(base_key)
        report = scrub_cloud(cloud)
        assert not report.clean
        assert any("delta base" in p for p in report.problems)

    def test_scrub_flags_corrupt_delta_blob(self, rng):
        cloud = InMemoryBackend()
        _store_chain(cloud, depth=1, rng=rng)
        key = cloud.list(naming.DELTA_PREFIX)[0]
        cloud.put(key, b"\x00" * 40)
        report = scrub_cloud(cloud)
        assert not report.clean


# ----------------------------------------------------------------------
class TestHashForDigestLen:
    def test_registry_resolution(self):
        assert hash_for_digest_len(12).name == "rabin12"
        assert hash_for_digest_len(16).name == "md5"
        assert hash_for_digest_len(20).name == "sha1"
        assert hash_for_digest_len(57) is None

    def test_matches_restore_and_scrub_usage(self):
        for n in (12, 16, 20):
            hasher = hash_for_digest_len(n)
            assert hasher.digest_size == n
