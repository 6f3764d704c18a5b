"""Tests for the trace layer: simulated chunking, the trace engine, the
evaluation driver — and cross-validation against the real-bytes engine."""

import pytest

from repro.baselines import (
    aa_dedupe_config,
    all_scheme_configs,
    avamar_config,
    jungle_disk_config,
)
from repro.cloud import InMemoryBackend
from repro.core import BackupClient
from repro.simulate.diskmodel import IndexResidencyModel
from repro.trace import (
    BoundaryModel,
    TraceBackupClient,
    run_paper_evaluation,
    sim_chunks,
    wfc_id,
)
from repro.util.units import KIB, MB
from repro.workloads import Composition, Extent, WorkloadGenerator
from repro.workloads.compose import make_block_id
from repro.workloads.materialize import snapshot_to_memory_source
from repro.workloads.profiles import DENSITY_DENSE, DENSITY_SPARSE


def fresh(length, counter, density=DENSITY_DENSE):
    return Extent(make_block_id(counter, density), 0, length)


class TestSimChunks:
    def test_wfc_identity(self):
        c1 = Composition([fresh(1000, 1)])
        c2 = Composition([fresh(1000, 1)])
        c3 = Composition([fresh(1000, 2)])
        assert wfc_id(c1) == wfc_id(c2) != wfc_id(c3)

    def test_partition_lengths(self):
        comp = Composition([fresh(100 * KIB, 5)])
        for method in ("wfc", "sc", "cdc"):
            chunks = sim_chunks(comp, method, BoundaryModel())
            assert sum(length for _id, length in chunks) == comp.size

    def test_sc_chunk_sizes(self):
        comp = Composition([fresh(20 * KIB, 6)])
        chunks = sim_chunks(comp, "sc", chunk_size=8 * KIB)
        assert [length for _id, length in chunks] == [8 * KIB, 8 * KIB,
                                                      4 * KIB]

    def test_sc_alignment_sensitivity(self):
        # The same content shifted by one byte: SC finds nothing.
        shared = fresh(64 * KIB, 7)
        a = Composition([shared])
        b = Composition([fresh(1, 8), shared])
        ids_a = {cid for cid, _l in sim_chunks(a, "sc")}
        ids_b = {cid for cid, _l in sim_chunks(b, "sc")}
        assert not (ids_a & ids_b)

    def test_cdc_shift_resilience(self):
        # The same content shifted: CDC re-finds most chunks.
        shared = fresh(512 * KIB, 9)
        a = Composition([shared])
        b = Composition([fresh(1, 10), shared])
        model = BoundaryModel()
        ids_a = {cid for cid, _l in sim_chunks(a, "cdc", model)}
        ids_b = {cid for cid, _l in sim_chunks(b, "cdc", model)}
        assert len(ids_a & ids_b) >= 0.7 * len(ids_a)

    def test_cdc_chunk_bounds(self):
        comp = Composition([fresh(1 * MB, 11)])
        chunks = sim_chunks(comp, "cdc", BoundaryModel(),
                            min_size=2 * KIB, max_size=16 * KIB)
        for _id, length in chunks[:-1]:
            assert 2 * KIB <= length <= 16 * KIB

    def test_sparse_density_forces_max_cuts(self):
        # VM-image-like content: boundary spacing > max chunk size, so
        # most cuts are forced at max size (Observation 3).
        comp = Composition([fresh(1 * MB, 12, DENSITY_SPARSE)])
        chunks = sim_chunks(comp, "cdc", BoundaryModel())
        forced = sum(1 for _id, length in chunks if length == 16 * KIB)
        assert forced > 0.5 * len(chunks)

    def test_dense_density_rarely_forces(self):
        comp = Composition([fresh(1 * MB, 13, DENSITY_DENSE)])
        chunks = sim_chunks(comp, "cdc", BoundaryModel())
        forced = sum(1 for _id, length in chunks if length == 16 * KIB)
        assert forced < 0.5 * len(chunks)

    def test_boundary_model_deterministic(self):
        block = make_block_id(77, DENSITY_DENSE)
        a = BoundaryModel().positions(block, 100_000)
        b = BoundaryModel().positions(block, 100_000)
        assert (a == b).all()

    def test_boundary_model_cache_extension(self):
        model = BoundaryModel()
        block = make_block_id(78, DENSITY_DENSE)
        first = model.positions(block, 10_000)
        extended = model.positions(block, 500_000)
        assert (extended[: first.size] == first).all()

    def test_empty_composition(self):
        assert sim_chunks(Composition([]), "cdc", BoundaryModel()) == []


class TestTraceEngine:
    def make_snapshots(self, n=3, total=30 * MB, seed=4):
        gen = WorkloadGenerator(total_bytes=total, seed=seed,
                                max_mean_file_size=total // 20)
        return list(gen.sessions(n))

    def test_second_session_dedups(self):
        snaps = self.make_snapshots()
        client = TraceBackupClient(aa_dedupe_config())
        s1 = client.backup(snaps[0])
        s2 = client.backup(snaps[1])
        assert s2.bytes_unique < 0.3 * s1.bytes_unique
        assert s2.dedup_ratio > 3.0

    def test_incremental_skips_unchanged(self):
        snaps = self.make_snapshots()
        client = TraceBackupClient(jungle_disk_config())
        client.backup(snaps[0])
        s2 = client.backup(snaps[1])
        assert s2.files_unchanged > 0.5 * s2.files_total
        # Unchanged files are not even read in incremental mode.
        assert s2.ops.read_bytes < s2.bytes_scanned

    def test_namespaces_by_layout(self):
        snaps = self.make_snapshots(n=1)
        aa = TraceBackupClient(aa_dedupe_config())
        aa.backup(snaps[0])
        assert len(aa.namespace_sizes()) > 3  # per-app
        av = TraceBackupClient(avamar_config())
        av.backup(snaps[0])
        assert list(av.namespace_sizes()) == ["global"]

    def test_residency_drives_disk_ios(self):
        snaps = self.make_snapshots(n=1)
        tight = IndexResidencyModel(ram_budget=1024, entry_bytes=48)
        roomy = IndexResidencyModel(ram_budget=1 << 30, entry_bytes=48)
        hot = TraceBackupClient(avamar_config(), residency=tight)
        hot.backup(snaps[0])
        cold = TraceBackupClient(avamar_config(), residency=roomy)
        cold.backup(snaps[0])
        assert hot.disk_ios_last_session > 100
        assert cold.disk_ios_last_session == 0

    def test_container_accounting(self):
        snaps = self.make_snapshots(n=1)
        aa = TraceBackupClient(aa_dedupe_config())
        stats = aa.backup(snaps[0])
        # Padded containers: uploads exceed unique payload, and PUTs are
        # roughly uploads/container_size, far below chunk count.
        assert stats.bytes_uploaded >= stats.bytes_unique
        assert stats.put_requests < stats.ops.chunks_produced / 5

    def test_per_chunk_put_accounting(self):
        snaps = self.make_snapshots(n=1)
        av = TraceBackupClient(avamar_config())
        stats = av.backup(snaps[0])
        # manifest put + one put per unique chunk.
        assert stats.put_requests == stats.chunks_unique + 1


class TestModelledStageSeconds:
    """The per-stage decomposition must sum exactly to the driver's
    modelled dedup time (trace/driver.py's ``dedup_seconds`` formula)."""

    def _stats_and_ios(self, config):
        gen = WorkloadGenerator(total_bytes=20 * MB, seed=11,
                                max_mean_file_size=1 * MB)
        snaps = list(gen.sessions(2))
        client = TraceBackupClient(config)
        records = []
        for snap in snaps:
            stats = client.backup(snap)
            records.append((stats, client.disk_ios_last_session))
        return records

    @pytest.mark.parametrize("config_factory",
                             [aa_dedupe_config, jungle_disk_config,
                              avamar_config])
    def test_sums_to_driver_formula(self, config_factory):
        from repro.simulate.cpumodel import PAPER_CPU, dedup_cpu_seconds
        from repro.simulate.diskmodel import PAPER_DISK
        from repro.trace.engine import modelled_stage_seconds

        for stats, disk_ios in self._stats_and_ios(config_factory()):
            stages = modelled_stage_seconds(stats, disk_ios=disk_ios)
            assert set(stages) == {"read", "chunk", "hash", "index",
                                   "commit"}
            assert all(v >= 0.0 for v in stages.values())
            driver_seconds = (
                dedup_cpu_seconds(stats.ops, PAPER_CPU,
                                  files=stats.files_total)
                + PAPER_DISK.read_seconds(stats.ops.read_bytes)
                + PAPER_DISK.random_io_seconds(disk_ios))
            assert sum(stages.values()) == pytest.approx(
                driver_seconds, rel=1e-12)

    def test_default_disk_ios_from_ledger(self):
        from repro.trace.engine import modelled_stage_seconds

        (stats, _ios), _ = self._stats_and_ios(aa_dedupe_config())
        explicit = modelled_stage_seconds(
            stats, disk_ios=float(stats.ops.index_disk_probes))
        assert modelled_stage_seconds(stats) == explicit


class TestCrossValidation:
    """The trace engine and the real-bytes engine must agree."""

    @pytest.mark.parametrize("config_factory", [
        aa_dedupe_config, avamar_config, jungle_disk_config])
    def test_dedup_ratio_agreement(self, config_factory):
        gen = WorkloadGenerator(total_bytes=14 * MB, seed=21,
                                max_mean_file_size=1 * MB)
        snaps = list(gen.sessions(2))
        trace_client = TraceBackupClient(config_factory())
        trace_stats = [trace_client.backup(s) for s in snaps]
        # The trace engine models the dedup policy, not the stat-cache
        # recipe replay (which changes what tiny files re-store on
        # session 2), so the real engine runs cache-off here.
        config = config_factory()
        if config.stat_cache:
            config = config.with_(stat_cache=False)
        real_client = BackupClient(InMemoryBackend(), config)
        real_stats = [real_client.backup(snapshot_to_memory_source(s))
                      for s in snaps]
        for ts, rs in zip(trace_stats, real_stats):
            assert ts.bytes_scanned == rs.bytes_scanned
            assert ts.files_total == rs.files_total
            # Unique-byte agreement within 12 % (boundary models differ
            # in detail, not in behaviour).
            assert ts.bytes_unique == pytest.approx(rs.bytes_unique,
                                                    rel=0.12)

    @pytest.mark.parametrize(
        "config", all_scheme_configs(), ids=lambda c: c.name)
    def test_decisions_and_work_agree_exactly(self, config, monkeypatch):
        # Differential arm: both engines take every per-file decision
        # from SchemeConfig.plan_file, so everything that follows from
        # the decisions alone — which files are tiny / unchanged, how
        # many bytes are read, CDC-scanned and pushed through each hash
        # — must agree exactly, not approximately.
        from repro.core.options import SchemeConfig

        plans = []
        real_plan_file = SchemeConfig.plan_file

        def recording(self, app, size):
            plan = real_plan_file(self, app, size)
            plans.append((app.label, size, plan))
            return plan

        monkeypatch.setattr(SchemeConfig, "plan_file", recording)
        gen = WorkloadGenerator(total_bytes=10 * MB, seed=23,
                                max_mean_file_size=512 * KIB)
        snaps = list(gen.sessions(2))
        if config.stat_cache:  # replay is not modelled by the trace engine
            config = config.with_(stat_cache=False)
        trace_client = TraceBackupClient(config)
        real_client = BackupClient(InMemoryBackend(), config)
        for snap in snaps:
            del plans[:]
            ts = trace_client.backup(snap)
            trace_plans = list(plans)
            del plans[:]
            rs = real_client.backup(snapshot_to_memory_source(snap))
            assert len(trace_plans) == len(snap.files)  # every file
            assert plans == trace_plans
            assert ts.files_tiny == rs.files_tiny
            assert ts.files_unchanged == rs.files_unchanged
            assert ts.ops.read_bytes == rs.ops.read_bytes
            assert ts.ops.cdc_scanned_bytes == rs.ops.cdc_scanned_bytes
            assert ts.ops.hashed_bytes == rs.ops.hashed_bytes


class TestDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_paper_evaluation(scale=0.002, sessions=5)

    def test_all_schemes_present(self, result):
        assert set(result.runs) == {c.name for c in all_scheme_configs()}

    def test_sessions_recorded(self, result):
        for run in result.runs.values():
            assert len(run.sessions) == 5
            for record in run.sessions:
                assert record.dedup_seconds > 0
                assert record.window_seconds >= max(
                    record.dedup_seconds, record.transfer_seconds) * 0.999

    def test_cumulative_monotone(self, result):
        for run in result.runs.values():
            series = [r.cumulative_uploaded for r in run.sessions]
            assert series == sorted(series)

    def test_paper_shape_storage(self, result):
        total = {n: r.total_uploaded() for n, r in result.runs.items()}
        # Source dedup beats incremental; AA no worse than chunk-level.
        assert total["AA-Dedupe"] < total["JungleDisk"]
        assert total["AA-Dedupe"] < total["BackupPC"]
        assert total["AA-Dedupe"] <= 1.1 * total["Avamar"]
        assert total["AA-Dedupe"] <= 1.1 * total["SAM"]

    def test_paper_shape_efficiency(self, result):
        de = {n: r.mean_efficiency() for n, r in result.runs.items()}
        # AA-Dedupe leads every dedup scheme by a clear factor.
        for other in ("BackupPC", "SAM", "Avamar"):
            assert de["AA-Dedupe"] > 1.3 * de[other]
        # Avamar is the least efficient dedup scheme (paper: 1/7th).
        assert de["Avamar"] == min(de[n] for n in
                                   ("BackupPC", "SAM", "Avamar"))

    def test_paper_shape_window(self, result):
        mean_window = {
            n: sum(r.window_seconds for r in run.sessions) / 5
            for n, run in result.runs.items()}
        assert mean_window["AA-Dedupe"] == min(mean_window.values())

    def test_paper_shape_cost(self, result):
        up = result.scale_to_paper()
        cost = {n: r.monthly_cost(scale_to_paper=up)
                for n, r in result.runs.items()}
        assert cost["AA-Dedupe"] == min(cost.values())

    def test_paper_shape_energy(self, result):
        energy = {n: sum(r.energy_joules for r in run.sessions)
                  for n, run in result.runs.items()}
        assert energy["AA-Dedupe"] < energy["SAM"]
        assert energy["AA-Dedupe"] < energy["Avamar"] / 2

    def test_shared_snapshots_between_schemes(self, result):
        scanned = {n: [r.stats.bytes_scanned for r in run.sessions]
                   for n, run in result.runs.items()}
        reference = next(iter(scanned.values()))
        assert all(v == reference for v in scanned.values())
