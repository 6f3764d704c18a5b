"""Edge-case and adversarial-input tests across the system."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import RabinCDC
from repro.cloud import InMemoryBackend
from repro.core import (
    BackupClient,
    MemorySource,
    RestoreClient,
    aa_dedupe_config,
)
from repro.trace import TraceBackupClient
from repro.util.units import KIB, MIB
from repro.workloads.compose import Snapshot
from tests.oracles import reference_cut_points


# Low-entropy content breaks naive CDC implementations: zero runs,
# repeated motifs, alternating patterns.
_low_entropy = st.one_of(
    st.integers(0, 50_000).map(bytes),                        # zeros
    st.tuples(st.binary(min_size=1, max_size=16),
              st.integers(1, 4000)).map(lambda t: t[0] * t[1]),
    st.integers(0, 20_000).map(lambda n: b"\xff\x00" * n),
)


class TestCDCAdversarialContent:
    @given(data=_low_entropy)
    @settings(max_examples=30, deadline=None)
    def test_numpy_matches_oracle_on_low_entropy(self, data):
        cdc = RabinCDC(avg_size=1 * KIB, min_size=256, max_size=4 * KIB,
                       window=16)
        assert cdc.cut_points(data) == reference_cut_points(cdc, data)

    @given(data=_low_entropy)
    @settings(max_examples=30, deadline=None)
    def test_partition_invariants_on_low_entropy(self, data):
        cdc = RabinCDC(avg_size=1 * KIB, min_size=256, max_size=4 * KIB,
                       window=16)
        chunks = cdc.chunk(data)
        assert b"".join(c.data for c in chunks) == data
        for c in chunks[:-1]:
            assert 256 <= c.length <= 4 * KIB

    def test_numpy_scan_is_actually_faster(self):
        # The HPC-guide-driven vectorisation must pay off.
        import time
        data = np.random.default_rng(0).integers(
            0, 256, size=1 * MIB, dtype=np.uint8).tobytes()
        cdc = RabinCDC()
        t0 = time.perf_counter()
        cdc.chunk(data)
        fast_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        reference_cut_points(cdc, data)
        slow_s = time.perf_counter() - t0
        assert fast_s < slow_s / 2


class TestEngineEdgeCases:
    def test_empty_source(self):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config())
        stats = client.backup(MemorySource({}))
        assert stats.files_total == 0
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == {}

    def test_only_empty_files(self):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config())
        files = {"a.txt": b"", "b/c.doc": b""}
        client.backup(MemorySource(files))
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files

    def test_file_larger_than_container(self, rng):
        # A compressed file (WFC) much bigger than the container size
        # must ship as an oversized container and restore bit-exactly.
        big = rng.integers(0, 256, 3 * MIB, dtype=np.uint8).tobytes()
        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=64 * KIB))
        stats = client.backup(MemorySource({"movie.avi": big}))
        assert stats.chunks_unique == 1
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored["movie.avi"] == big

    def test_unknown_extension_treated_as_dynamic(self, rng):
        data = rng.integers(0, 256, 40_000, dtype=np.uint8).tobytes()
        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config())
        stats = client.backup(MemorySource({"blob.xyz123": data}))
        # Dynamic category: CDC-scanned with SHA-1.
        assert stats.ops.cdc_scanned_bytes == 40_000
        assert "sha1" in stats.ops.hashed_bytes
        assert client.index.apps == ["unknown"]

    def test_path_with_unicode_and_spaces(self, rng):
        data = rng.integers(0, 256, 20_000, dtype=np.uint8).tobytes()
        files = {"Ünïcode dir/my réport (final).doc": data}
        cloud = InMemoryBackend()
        BackupClient(cloud, aa_dedupe_config()).backup(MemorySource(files))
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files

    def test_many_identical_tiny_files(self):
        # Tiny files bypass dedup by design: N copies cost N extents.
        files = {f"tiny/t{i:03d}.txt": b"same tiny content"
                 for i in range(50)}
        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config())
        stats = client.backup(MemorySource(files))
        assert stats.files_tiny == 50
        assert stats.bytes_unique == 50 * 17
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files


class TestTraceEngineEdgeCases:
    def test_empty_snapshot(self):
        client = TraceBackupClient(aa_dedupe_config())
        stats = client.backup(Snapshot(session=0))
        assert stats.files_total == 0
        assert stats.put_requests >= 1  # the (empty) manifest

    def test_deleted_files_disappear_from_accounting(self):
        from repro.workloads import WorkloadGenerator
        from repro.util.units import MB
        gen = WorkloadGenerator(total_bytes=12 * MB, seed=31,
                                max_mean_file_size=1 * MB)
        snap = gen.initial_snapshot()
        client = TraceBackupClient(aa_dedupe_config())
        client.backup(snap)
        smaller = snap.copy(1)
        victims = sorted(smaller.files)[:10]
        for path in victims:
            smaller.remove(path)
        stats = client.backup(smaller)
        assert stats.files_total == len(snap) - 10
