"""Tests for the virtual platform models (clock, CPU, disk, power,
pipeline window)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import OpCounters
from repro.errors import SimulationError
from repro.simulate import (
    IndexResidencyModel,
    PAPER_CPU,
    PAPER_DISK,
    PAPER_POWER,
    VirtualClock,
    backup_window,
    dedup_cpu_seconds,
    dedup_throughput,
)
from repro.util.units import MB, MIB


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now() == pytest.approx(7.5)

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            VirtualClock().advance(-1)

    def test_reset(self):
        clock = VirtualClock(10)
        clock.advance(5)
        clock.reset()
        assert clock.now() == 0.0

    def test_stopwatch_compatible(self):
        from repro.util.timer import Stopwatch
        clock = VirtualClock()
        sw = Stopwatch(clock=clock)
        sw.start()
        clock.advance(3.0)
        assert sw.stop() == pytest.approx(3.0)


class TestCPUModel:
    def test_hash_ordering_matches_paper(self):
        # Fig. 3: Rabin < MD5 < SHA-1.
        t = {h: PAPER_CPU.hash_seconds(h, 60 * MB)
             for h in ("rabin12", "md5", "sha1")}
        assert t["rabin12"] < t["md5"] < t["sha1"]

    def test_unknown_hash(self):
        with pytest.raises(KeyError):
            PAPER_CPU.hash_seconds("crc32", 100)

    def test_wfc_and_sc_nearly_equal_total(self):
        # Observation 3/Fig. 3: time dominated by capacity, not
        # granularity — SC adds only per-chunk overhead.
        data = 60 * MB
        ops_wfc = OpCounters(hashed_bytes={"md5": data}, chunks_produced=1)
        ops_sc = OpCounters(hashed_bytes={"md5": data},
                            chunks_produced=data // 8192)
        t_wfc = dedup_cpu_seconds(ops_wfc)
        t_sc = dedup_cpu_seconds(ops_sc)
        assert t_wfc < t_sc < 1.25 * t_wfc

    def test_cdc_scan_dominates_fingerprint(self):
        # Sec. III-D: for CDC, boundary identification outweighs the
        # chunk fingerprinting cost.
        assert PAPER_CPU.cdc_scan_seconds(MB) > PAPER_CPU.hash_seconds(
            "sha1", MB)

    def test_dedup_cpu_seconds_components(self):
        ops = OpCounters(hashed_bytes={"sha1": 10 * MB},
                         cdc_scanned_bytes=10 * MB,
                         chunks_produced=1000,
                         index_lookups=1000)
        total = dedup_cpu_seconds(ops, files=10)
        parts = (PAPER_CPU.hash_seconds("sha1", 10 * MB)
                 + PAPER_CPU.cdc_scan_seconds(10 * MB)
                 + 1000 * PAPER_CPU.cycles_per_chunk / PAPER_CPU.frequency_hz
                 + 10 * PAPER_CPU.cycles_per_file / PAPER_CPU.frequency_hz
                 + 1000 * PAPER_CPU.cycles_per_memory_lookup
                 / PAPER_CPU.frequency_hz)
        assert total == pytest.approx(parts)

    @given(st.integers(0, 10**9))
    @settings(max_examples=20)
    def test_property_monotone_in_bytes(self, nbytes):
        a = dedup_cpu_seconds(OpCounters(hashed_bytes={"md5": nbytes}))
        b = dedup_cpu_seconds(OpCounters(hashed_bytes={"md5": nbytes + 1}))
        assert b >= a


class TestDiskModel:
    def test_read_seconds(self):
        assert PAPER_DISK.read_seconds(70 * MB) == pytest.approx(1.0)

    def test_random_io(self):
        assert PAPER_DISK.random_io_seconds(1000) == pytest.approx(9.0)


class TestIndexResidency:
    def test_small_index_resident(self):
        model = IndexResidencyModel(ram_budget=MIB, entry_bytes=64)
        assert model.miss_ratio(100) == 0.0
        assert model.lookup_io_count(10_000, 100) == 0.0

    def test_large_index_spills(self):
        model = IndexResidencyModel(ram_budget=MIB, entry_bytes=64)
        big = 10 * MIB // 64
        assert 0.5 < model.miss_ratio(big) < 1.0
        assert model.insert_io_count(1000, big) > 0

    def test_miss_monotone_in_entries(self):
        model = IndexResidencyModel(ram_budget=MIB, entry_bytes=64)
        sizes = [10_000, 50_000, 200_000, 10**6]
        misses = [model.miss_ratio(s) for s in sizes]
        assert misses == sorted(misses)

    def test_locality_exponent_softens(self):
        linear = IndexResidencyModel(ram_budget=MIB, entry_bytes=64,
                                     locality_exponent=1.0)
        local = IndexResidencyModel(ram_budget=MIB, entry_bytes=64,
                                    locality_exponent=2.0)
        entries = 2 * MIB // 64  # 50 % spill
        assert local.miss_ratio(entries) < linear.miss_ratio(entries)

    def test_the_papers_argument(self):
        """The application-aware index claim, quantified: twelve small
        subindices are all RAM-resident while their union spills."""
        model = IndexResidencyModel()
        per_app = 1_500_000  # entries in the largest subindex
        total = 4 * per_app  # the unified index
        assert model.miss_ratio(per_app) == 0.0
        assert model.miss_ratio(total) > 0.1


class TestPowerModel:
    def test_dedup_energy(self):
        assert PAPER_POWER.dedup_energy_joules(100) == pytest.approx(
            100 * (PAPER_POWER.idle_watts + PAPER_POWER.cpu_active_watts))

    def test_longer_dedup_more_energy(self):
        assert PAPER_POWER.dedup_energy_joules(200) > \
            PAPER_POWER.dedup_energy_joules(100)


class TestPipelineWindow:
    def test_pipelined_is_max(self):
        assert backup_window(100, 60) == 100
        assert backup_window(60, 100) == 100

    def test_serial_is_sum(self):
        assert backup_window(100, 60, pipelined=False) == 160

    def test_throughput(self):
        assert dedup_throughput(1000, 10) == 100
        assert dedup_throughput(1000, 0) == float("inf")

    @given(st.floats(0.1, 1e6), st.floats(0.1, 1e6))
    @settings(max_examples=30)
    def test_property_window_bounds(self, dedup, transfer):
        window = backup_window(dedup, transfer)
        assert max(dedup, transfer) == window
        assert window <= dedup + transfer
