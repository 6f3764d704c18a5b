"""Tests for secure (convergent) deduplication — the paper's future work."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import InMemoryBackend
from repro.core import (
    BackupClient,
    MemorySource,
    RestoreClient,
    aa_dedupe_config,
)
from repro.core import naming
from repro.errors import BackupError, ConfigError, IntegrityError, RestoreError
from repro.secure import (
    ConvergentCipher,
    WRAPPED_KEY_LEN,
    chunk_key,
    unwrap_key,
    wrap_key,
)
from repro.util.units import KIB

MASTER = b"correct horse battery staple....".ljust(32, b"\0")
OTHER = b"completely different master key!".ljust(32, b"\0")


class TestConvergentCipher:
    def test_roundtrip(self):
        plain = b"the quick brown fox" * 100
        cipher, key = ConvergentCipher.seal(plain)
        assert cipher != plain
        assert ConvergentCipher.decrypt(cipher, key) == plain

    def test_deterministic_equal_plaintexts(self):
        # The property dedup rests on: equal plaintexts anywhere, by any
        # client, produce equal ciphertexts.
        a, _ = ConvergentCipher.seal(b"shared content block")
        b, _ = ConvergentCipher.seal(b"shared content block")
        assert a == b

    def test_distinct_plaintexts_distinct_ciphertexts(self):
        a, _ = ConvergentCipher.seal(b"content A")
        b, _ = ConvergentCipher.seal(b"content B")
        assert a != b

    def test_length_preserving(self):
        for n in (0, 1, 63, 64, 65, 10_000):
            cipher, _ = ConvergentCipher.seal(bytes(n))
            assert len(cipher) == n

    def test_key_is_content_hash(self):
        assert chunk_key(b"x") == chunk_key(b"x")
        assert chunk_key(b"x") != chunk_key(b"y")

    @given(st.binary(max_size=5000))
    @settings(max_examples=40)
    def test_property_roundtrip(self, plain):
        cipher, key = ConvergentCipher.seal(plain)
        assert ConvergentCipher.decrypt(cipher, key) == plain
        if len(plain) >= 8:
            assert cipher != plain  # overwhelmingly likely


class TestKeyWrapping:
    def test_roundtrip(self):
        key = chunk_key(b"some chunk")
        fp = b"\x01" * 20
        wrapped = wrap_key(key, MASTER, fp)
        assert len(wrapped) == WRAPPED_KEY_LEN
        assert unwrap_key(wrapped, MASTER, fp) == key

    def test_wrong_master_detected(self):
        wrapped = wrap_key(chunk_key(b"c"), MASTER, b"\x02" * 20)
        with pytest.raises(IntegrityError):
            unwrap_key(wrapped, OTHER, b"\x02" * 20)

    def test_wrong_fingerprint_binding_detected(self):
        wrapped = wrap_key(chunk_key(b"c"), MASTER, b"\x02" * 20)
        with pytest.raises(IntegrityError):
            unwrap_key(wrapped, MASTER, b"\x03" * 20)

    def test_tampered_wrap_detected(self):
        wrapped = bytearray(wrap_key(chunk_key(b"c"), MASTER, b"\x04" * 20))
        wrapped[0] ^= 1
        with pytest.raises(IntegrityError):
            unwrap_key(bytes(wrapped), MASTER, b"\x04" * 20)

    def test_length_checked(self):
        with pytest.raises(IntegrityError):
            unwrap_key(b"short", MASTER, b"\x05" * 20)
        with pytest.raises(ValueError):
            wrap_key(b"short", MASTER, b"\x05" * 20)


@pytest.fixture()
def files(rng):
    def blob(n):
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    doc = blob(40_000)
    return {
        "a.doc": doc,
        "a_copy.doc": doc,
        "m.mp3": blob(30_000),
        "v.vmdk": blob(50_000),
        "t.txt": blob(200),
    }


def secure_client(cloud):
    return BackupClient(cloud,
                        aa_dedupe_config(encrypt_chunks=True,
                                         container_size=32 * KIB),
                        master_key=MASTER)


class TestSecureBackup:
    def test_roundtrip_with_key(self, files):
        cloud = InMemoryBackend()
        secure_client(cloud).backup(MemorySource(files))
        restored, report = RestoreClient(
            cloud, master_key=MASTER).restore_to_memory(0)
        assert restored == files
        assert report.chunks_verified > 0

    def test_restore_without_key_refused(self, files):
        cloud = InMemoryBackend()
        secure_client(cloud).backup(MemorySource(files))
        with pytest.raises(RestoreError):
            RestoreClient(cloud).restore_to_memory(0)

    def test_restore_with_wrong_key_detected(self, files):
        cloud = InMemoryBackend()
        secure_client(cloud).backup(MemorySource(files))
        with pytest.raises(IntegrityError):
            RestoreClient(cloud, master_key=OTHER).restore_to_memory(0)

    def test_no_plaintext_in_cloud(self, files):
        cloud = InMemoryBackend()
        secure_client(cloud).backup(MemorySource(files))
        blob = b"".join(cloud._objects[k]
                        for k in cloud.list(naming.CONTAINER_PREFIX))
        for path, data in files.items():
            assert data[:64] not in blob, path

    def test_dedup_preserved_under_encryption(self, files):
        cloud = InMemoryBackend()
        client = secure_client(cloud)
        s1 = client.backup(MemorySource(files))
        # Duplicate file dedups within the session...
        assert s1.bytes_saved >= 40_000
        # ...and everything dedups across sessions.
        s2 = client.backup(MemorySource(files))
        assert s2.chunks_unique == 0

    def test_cross_client_dedup_without_shared_master(self, files):
        # Convergent encryption's defining property: two clients with
        # different master keys still produce identical ciphertexts, so
        # cross-client dedup works — each restores with its own master.
        cloud = InMemoryBackend()
        c1 = BackupClient(cloud, aa_dedupe_config(
            encrypt_chunks=True, container_size=32 * KIB),
            master_key=MASTER)
        c1.backup(MemorySource(files))
        c2 = BackupClient(cloud, aa_dedupe_config(
            encrypt_chunks=True, container_size=32 * KIB),
            master_key=OTHER)
        stats = c2.backup(MemorySource(files))
        assert stats.session_id == 1
        assert stats.chunks_unique == 0  # full cross-client dedup
        restored, _ = RestoreClient(cloud,
                                    master_key=OTHER).restore_to_memory(1)
        assert restored == files

    def test_missing_master_key_rejected_at_construction(self):
        with pytest.raises(BackupError):
            BackupClient(InMemoryBackend(),
                         aa_dedupe_config(encrypt_chunks=True))

    def test_incompatible_with_incremental(self):
        from repro.baselines import jungle_disk_config
        with pytest.raises(ConfigError):
            jungle_disk_config(encrypt_chunks=True)

    def test_recipe_carries_wrapped_keys(self, files):
        cloud = InMemoryBackend()
        client = secure_client(cloud)
        client.backup(MemorySource(files))
        manifest = client._prev_manifest
        for entry in manifest:
            for ref in entry.refs:
                assert ref.wrapped_key is not None
                assert len(ref.wrapped_key) == WRAPPED_KEY_LEN
        # ...and they survive JSON round-tripping.
        from repro.core.recipe import Manifest
        clone = Manifest.from_json(manifest.to_json())
        ref = next(iter(clone)).refs[0]
        assert ref.wrapped_key is not None
