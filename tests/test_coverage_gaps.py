"""Focused tests for corners not covered by the module suites."""

import pytest

from repro.analysis.figures import paper_figures_7_to_11
from repro.chunking.cdc import default_mask_bits
from repro.cloud import InMemoryBackend
from repro.core import BackupClient, MemorySource, RestoreClient, aa_dedupe_config
from repro.core.options import SchemeConfig
from repro.hashing.rolling import lane_tables
from repro.metrics.report import Table
from repro.trace import run_paper_evaluation
from repro.util.units import KIB
from repro.workloads.presets import (
    MEDIA_VM_SHARES,
    OFFICE_SHARES,
    profiles_with_shares,
)


class TestPaperFiguresHelper:
    @pytest.fixture(scope="class")
    def figures(self):
        result = run_paper_evaluation(scale=0.001, sessions=2)
        return paper_figures_7_to_11(result=result)

    def test_series_scaled_to_paper(self, figures):
        up = figures.result.scale_to_paper()
        for name, run in figures.result.runs.items():
            raw = [r.cumulative_uploaded for r in run.sessions]
            scaled = figures.fig7_cumulative_storage[name]
            assert scaled == [int(v * up) for v in raw]

    def test_cost_components_positive(self, figures):
        for breakdown in figures.fig10_cost.values():
            assert breakdown.storage > 0
            assert breakdown.transfer > 0
            assert breakdown.requests >= 0
            assert breakdown.total == pytest.approx(
                breakdown.storage + breakdown.transfer
                + breakdown.requests)

    def test_energy_tracks_dedup_time(self, figures):
        for name, run in figures.result.runs.items():
            for record, energy in zip(run.sessions,
                                      figures.fig11_energy[name]):
                assert energy > 0
                assert energy == pytest.approx(
                    record.energy_joules * figures.result.scale_to_paper())


class TestWorkloadPresets:
    def test_shares_valid(self):
        for shares in (MEDIA_VM_SHARES, OFFICE_SHARES):
            assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
            profiles = profiles_with_shares(shares)
            assert len(profiles) == 12
            for profile in profiles:
                assert profile.capacity_share == shares[profile.label]

    def test_bad_shares_rejected(self):
        with pytest.raises(ValueError):
            profiles_with_shares({"mp3": 1.0})
        bad = dict(OFFICE_SHARES)
        bad["mp3"] += 0.5
        with pytest.raises(ValueError):
            profiles_with_shares(bad)

    def test_presets_change_generated_mix(self):
        from repro.util.units import MB
        from repro.workloads import WorkloadGenerator

        def vmdk_fraction(profiles):
            gen = WorkloadGenerator(total_bytes=30 * MB, profiles=profiles,
                                    seed=5, max_mean_file_size=2 * MB)
            snap = gen.initial_snapshot()
            vmdk = sum(c.size for p, c in snap.files.items()
                       if p.startswith("vmdk/"))
            return vmdk / snap.total_bytes()

        assert vmdk_fraction(profiles_with_shares(OFFICE_SHARES)) < \
            vmdk_fraction(profiles_with_shares(MEDIA_VM_SHARES))


class TestMiscGaps:
    def test_default_mask_bits_degenerate(self):
        # avg == min forces the fallback span.
        assert default_mask_bits(4096, 4096) >= 1

    def test_window_tables_cached_identity(self):
        from repro.hashing.rabin import POLY64
        tables = lane_tables(8, POLY64, 0x1FFF)
        assert lane_tables(8, POLY64, 0x1FFF) is tables
        assert lane_tables(8, POLY64, 0x3FFF) is not tables

    def test_table_nan_and_large_values(self):
        t = Table(["a", "b"])
        t.add_row(["x", float("nan")])
        t.add_row(["y", 123456.789])
        text = t.render()
        assert "nan" in text and "1.23e+05" in text

    def test_scheme_config_frozen(self):
        cfg = aa_dedupe_config()
        with pytest.raises(Exception):
            cfg.name = "mutated"

    def test_tier_layout_requires_policy(self):
        # index_namespace with tier layout groups by chunker name.
        from repro.classify import AA_POLICY_TABLE, Category
        policy = AA_POLICY_TABLE[Category.DYNAMIC]
        cfg = SchemeConfig(name="x", index_layout="tier",
                           policy_table=dict.fromkeys(Category, policy))
        assert cfg.index_namespace("whatever", policy) == policy.chunker

    def test_restore_no_verify_skips_counting(self, rng):
        import numpy as np
        files = {"a.doc": np.random.default_rng(0).integers(
            0, 256, 25_000, dtype=np.uint8).tobytes()}
        cloud = InMemoryBackend()
        BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB)).backup(MemorySource(files))
        _out, report = RestoreClient(cloud,
                                     verify=False).restore_to_memory(0)
        assert report.chunks_verified == 0

    def test_encrypted_and_parallel_compose(self, rng):
        import numpy as np
        r = np.random.default_rng(4)
        files = {f"d/f{i}.doc": r.integers(0, 256, 20_000,
                                           dtype=np.uint8).tobytes()
                 for i in range(4)}
        files["m/x.mp3"] = r.integers(0, 256, 30_000,
                                      dtype=np.uint8).tobytes()
        cloud = InMemoryBackend()
        client = BackupClient(
            cloud,
            aa_dedupe_config(container_size=32 * KIB, parallel_workers=3,
                             encrypt_chunks=True),
            master_key=b"0" * 32)
        client.backup(MemorySource(files))
        restored, _ = RestoreClient(
            cloud, master_key=b"0" * 32).restore_to_memory(0)
        assert restored == files
