"""Tests for the dedup estimator: a first backup that stores nothing."""

import numpy as np
import pytest

from repro.analysis import estimate, estimate_directory
from repro.cloud import InMemoryBackend, S3_APRIL_2011
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
        stats = estimate_directory(tree).stats
        assert stats.files_total == 5
        assert stats.files_tiny == 1
        assert stats.bytes_scanned == 50_000 * 2 + 50_000 + 40_000 + 5

    def test_detects_duplicate_and_overlap(self, tree):
        stats = estimate_directory(tree).stats
        # The full copy (50k) and ~half of b.doc dedup away.
        assert stats.bytes_unique < stats.bytes_scanned - 50_000
        assert stats.dedup_ratio > 1.3

    def test_matches_actual_backup(self, tree):
        est = estimate_directory(tree).stats
        client = BackupClient(InMemoryBackend(),
                              aa_dedupe_config(container_size=32 * KIB))
        stats = client.backup(DirectorySource(tree))
        assert est.bytes_unique == stats.bytes_unique
        assert est.app_unique == stats.app_unique

    def test_by_category_breakdown(self, tree):
        est = estimate_directory(tree)
        assert "dynamic_uncompressed" in est.by_category
        assert "compressed" in est.by_category
        assert sum(s for s, _u in est.by_category.values()) == \
            est.stats.bytes_scanned
        assert sum(u for _s, u in est.by_category.values()) == \
            est.stats.bytes_unique

    def test_derived_predictions(self, tree):
        est = estimate_directory(tree)
        # Priced from what the first backup uploads: padded containers
        # and the manifest, more than the unique payload.
        assert est.stats.bytes_uploaded > est.stats.bytes_unique
        assert est.upload_seconds > 0
        assert est.monthly_cost == S3_APRIL_2011.monthly_cost(
            est.stats.bytes_uploaded, est.stats.bytes_uploaded,
            est.stats.put_requests)
        assert est.upload_seconds < est.stats.bytes_scanned / 100  # sanity

    def test_empty_directory(self, tmp_path):
        stats = estimate_directory(tmp_path).stats
        assert stats.files_total == 0
        assert stats.dedup_ratio == 1.0

    def test_vanished_file_left_out(self, tree, monkeypatch):
        # A file deleted between the walk and its read is left out of
        # the estimate with a warning, as a backup leaves it out.
        victim = "docs/b.doc"

        class Vanishing(DirectorySource):
            def __iter__(self):
                for sf in super().__iter__():
                    if sf.path == victim:
                        (self.root / victim).unlink()
                    yield sf

        monkeypatch.setattr(estimate, "DirectorySource", Vanishing)
        stats = estimate_directory(tree).stats
        assert stats.files_total == 4
        assert stats.bytes_scanned == 50_000 * 2 + 40_000 + 5
        [warning] = stats.warnings
        assert victim in warning
