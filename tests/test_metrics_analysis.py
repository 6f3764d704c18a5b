"""Tests for the metric formulas and the figure-regeneration functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cross_application_sharing,
    fig1_fig2_size_distribution,
    fig3_hash_overhead,
    fig4_throughputs,
    table1_redundancy,
)
from repro.cloud.pricing import S3_APRIL_2011
from repro.core.stats import SessionStats
from repro.metrics import Table
from repro.simulate import PAPER_POWER, backup_window
from repro.util.units import GB, MB


def _stats(before: int, after: int) -> SessionStats:
    return SessionStats(0, "s", bytes_scanned=before, bytes_unique=after)


class TestDedupMetrics:
    def test_dedup_ratio(self):
        assert _stats(100, 50).dedup_ratio == 2.0
        assert _stats(0, 0).dedup_ratio == 1.0
        assert _stats(10, 0).dedup_ratio == float("inf")

    def test_formulations_agree(self):
        # DE = SC/time == (1 - 1/DR) * DT, over one session's stats.
        stats, seconds = _stats(1000, 250), 8.0
        by_definition = stats.bytes_saved / seconds
        dt = stats.bytes_scanned / seconds
        assert (1.0 - 1.0 / stats.dedup_ratio) * dt == pytest.approx(
            by_definition)

    @given(st.integers(1, 10**12), st.integers(1, 10**12),
           st.floats(0.001, 1e6))
    @settings(max_examples=40)
    def test_property_equivalence(self, before, after, seconds):
        if after > before:
            before, after = after, before
        stats = _stats(before, after)
        lhs = stats.bytes_saved / seconds
        rhs = (1.0 - 1.0 / stats.dedup_ratio) * (before / seconds)
        # The (1 - 1/DR) form cancels catastrophically when after is
        # within a few ULPs of before at the 1e12 scale, so the two
        # formulations only agree to ~1e-7 relative there.
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestWindowMetric:
    """BWS = DS · max(1/DT, 1/(DR·NT)) at the paper's 35 GB session."""

    def test_transfer_bound(self):
        # DT huge -> window = DS/(DR*NT).
        transfer = 35 * GB / (20 * 500_000)
        assert backup_window(35 * GB / 1e12, transfer) == transfer

    def test_dedup_bound(self):
        dedup = 35 * GB / 500_000
        assert backup_window(dedup, 35 * GB / (20 * 1e12)) == dedup

    def test_serial(self):
        w = backup_window(GB / 1e6, GB / (1.0 * 1e6), pipelined=False)
        assert w == pytest.approx(2 * GB / 1e6)


class TestCostMetric:
    def test_breakdown(self):
        b = S3_APRIL_2011.breakdown(stored_bytes=10 * GB,
                                    uploaded_bytes=5 * GB,
                                    put_requests=20_000)
        assert b.storage == pytest.approx(1.4)
        assert b.transfer == pytest.approx(0.5)
        assert b.requests == pytest.approx(0.2)
        assert b.total == pytest.approx(2.1)
        assert b.total == S3_APRIL_2011.monthly_cost(10 * GB, 5 * GB,
                                                     20_000)


class TestEnergyMetric:
    def test_dedup_only(self):
        # Fig. 11 meters the dedup phase only.
        assert PAPER_POWER.dedup_energy_joules(100) == pytest.approx(
            100 * 42)


class TestTableFormatter:
    def test_render(self):
        t = Table(["a", "b"], title="T")
        t.add_row(["x", 1.5])
        text = t.render()
        assert "T" in text and "x" in text and "1.50" in text

    def test_row_width_checked(self):
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_alignment(self):
        t = Table(["name", "val"])
        t.add_row(["aa", 1])
        t.add_row(["bbbb", 22])
        lines = t.render().splitlines()
        assert len(lines[1]) >= len(lines[2].rstrip()) - 1


class TestFigureFunctions:
    def test_fig1_fig2_anchors(self):
        rows = fig1_fig2_size_distribution(n_files=100_000, seed=5)
        assert len(rows) == 3
        tiny, _mid, large = rows
        # Paper anchors within tolerance.
        assert tiny.count_share == pytest.approx(0.61, abs=0.04)
        assert tiny.capacity_share < 0.05
        assert large.count_share == pytest.approx(0.014, abs=0.01)
        assert large.capacity_share == pytest.approx(0.75, abs=0.1)
        assert sum(r.count_share for r in rows) == pytest.approx(1.0)
        assert sum(r.capacity_share for r in rows) == pytest.approx(1.0)

    def test_table1_shapes(self):
        rows = {r.app: r for r in table1_redundancy(
            total_bytes=250 * MB, seed=6)}
        assert len(rows) == 12
        # Compressed media: negligible sub-file redundancy.
        for app in ("avi", "mp3", "iso", "dmg", "rar", "jpg"):
            assert rows[app].sc_dr < 1.03
            assert rows[app].cdc_dr < 1.03
        # VM images: SC beats CDC (Observation 3).
        assert rows["vmdk"].sc_dr > rows["vmdk"].cdc_dr
        assert rows["vmdk"].sc_dr == pytest.approx(1.286, abs=0.1)
        # Dynamic documents: both find real redundancy.
        assert rows["doc"].sc_dr > 1.1
        assert rows["doc"].cdc_dr > 1.1

    def test_cross_application_sharing_negligible(self):
        shared, total = cross_application_sharing(total_bytes=60 * MB,
                                                  seed=8)
        assert total > 1000
        # Observation 4: the paper found ONE shared chunk; we assert
        # essentially-zero sharing.
        assert shared <= 2

    def test_fig3_orderings(self):
        times = fig3_hash_overhead()
        for chunking in ("wfc", "sc"):
            assert times[(chunking, "rabin12")] < times[(chunking, "md5")] \
                < times[(chunking, "sha1")]
        # WFC ~= SC for the same hash (capacity-dominated).
        for h in ("rabin12", "md5", "sha1"):
            assert times[("sc", h)] < 1.4 * times[("wfc", h)]

    def test_fig4_orderings(self):
        thr = fig4_throughputs()
        for h in ("rabin12", "md5", "sha1"):
            assert thr[("wfc", h)] > thr[("sc", h)] > thr[("cdc", h)]
        for c in ("wfc", "sc", "cdc"):
            assert thr[(c, "rabin12")] > thr[(c, "md5")] > thr[(c, "sha1")]

    def test_fig4_with_disk(self):
        free = fig4_throughputs(include_disk=False)
        gated = fig4_throughputs(include_disk=True)
        for key in free:
            assert gated[key] < free[key]
