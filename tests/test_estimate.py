"""Tests for the sampling-based dedup estimator."""

import numpy as np
import pytest

from repro.analysis import estimate_directory
from repro.cloud import InMemoryBackend
from repro.core import BackupClient, DirectorySource, aa_dedupe_config
from repro.util.units import KIB


@pytest.fixture()
def tree(tmp_path, rng):
    root = tmp_path / "data"
    (root / "docs").mkdir(parents=True)
    (root / "media").mkdir()
    doc = rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
    (root / "docs" / "a.doc").write_bytes(doc)
    (root / "docs" / "a_copy.doc").write_bytes(doc)       # full duplicate
    (root / "docs" / "b.doc").write_bytes(
        doc[:25_000] + rng.integers(0, 256, 25_000,
                                    dtype=np.uint8).tobytes())
    (root / "media" / "x.mp3").write_bytes(
        rng.integers(0, 256, 40_000, dtype=np.uint8).tobytes())
    (root / "tiny.txt").write_bytes(b"hello")
    return root


class TestEstimateDirectory:
    def test_counts(self, tree):
        est = estimate_directory(tree)
        assert est.files == 5
        assert est.tiny_files == 1
        assert est.bytes_scanned == 50_000 * 2 + 50_000 + 40_000 + 5

    def test_detects_duplicate_and_overlap(self, tree):
        est = estimate_directory(tree)
        # The full copy (50k) and ~half of b.doc dedup away.
        assert est.bytes_unique < est.bytes_scanned - 50_000
        assert est.dedup_ratio > 1.3

    def test_matches_actual_backup(self, tree):
        est = estimate_directory(tree)
        client = BackupClient(InMemoryBackend(),
                              aa_dedupe_config(container_size=32 * KIB))
        stats = client.backup(DirectorySource(tree))
        assert est.bytes_unique == pytest.approx(stats.bytes_unique,
                                                 rel=0.05)

    def test_delta_estimate_equals_actual_delta_backup(self, tree, rng):
        # Estimator and engine drive the same DeltaStage object, so on
        # an unsampled tree they must count the same deltas, exactly.
        doc = (tree / "docs" / "a.doc").read_bytes()
        for version in range(1, 5):  # lightly edited versions
            edited = bytearray(doc)
            for pos in rng.integers(0, len(doc) - 8, 12):
                edited[pos:pos + 8] = bytes(rng.integers(
                    0, 256, 8, dtype=np.uint8))
            doc = bytes(edited)
            (tree / "docs" / f"a_v{version}.doc").write_bytes(doc)
        est = estimate_directory(tree, delta=True)
        client = BackupClient(InMemoryBackend(), aa_dedupe_config(
            container_size=32 * KIB, delta_compress=True))
        stats = client.backup(DirectorySource(tree))
        assert stats.chunks_delta > 0
        assert est.delta_chunks == stats.chunks_delta
        assert est.delta_bytes_saved == stats.delta_bytes_saved
        assert est.bytes_unique == stats.bytes_unique
        assert estimate_directory(tree).delta_chunks == 0

    def test_by_category_breakdown(self, tree):
        est = estimate_directory(tree)
        assert "dynamic_uncompressed" in est.by_category
        assert "compressed" in est.by_category
        scanned = sum(s for s, _u in est.by_category.values())
        assert scanned == est.bytes_scanned

    def test_sampling_cap(self, tree, rng):
        big = rng.integers(0, 256, 300_000, dtype=np.uint8).tobytes()
        (tree / "media" / "big.mp3").write_bytes(big)
        capped = estimate_directory(tree, max_file_bytes=100_000)
        full = estimate_directory(tree)
        # Extrapolation keeps the estimates close for media (no sub-file
        # redundancy either way).
        assert capped.bytes_unique == pytest.approx(full.bytes_unique,
                                                    rel=0.05)

    def test_derived_predictions(self, tree):
        est = estimate_directory(tree)
        assert est.upload_seconds() > 0
        assert est.monthly_cost() > 0
        # Smaller unique volume => cheaper and faster, trivially.
        assert est.upload_seconds() < est.bytes_scanned / 100  # sanity

    def test_empty_directory(self, tmp_path):
        est = estimate_directory(tmp_path)
        assert est.files == 0
        assert est.dedup_ratio == 1.0
