"""Tests for parallel per-application dedup and the pipeline simulator."""

import os
import random
import time

import pytest

from repro.cloud import InMemoryBackend, SimulatedCloud
from repro.core import (
    BackupClient,
    RestoreClient,
    aa_dedupe_config,
)
from repro.core import naming
from repro.core.pipeline import (BackgroundWorker, PipelineAborted,
                                 StagePipeline, WorkItem)
from repro.core.source import SourceFile
from repro.simulate.clock import VirtualClock
from repro.errors import BackupError, ConfigError
from repro.simulate.pipeline import backup_window, simulate_two_stage_pipeline
from repro.util.units import KIB, MB
from repro.workloads import (
    WorkloadGenerator,
    materialize_snapshot,
    snapshot_to_memory_source,
)


@pytest.fixture(scope="module")
def snapshot():
    generator = WorkloadGenerator(total_bytes=14 * MB, seed=19,
                                  max_mean_file_size=1 * MB)
    return generator.initial_snapshot()


class TestParallelDedup:
    def test_equivalent_to_serial(self, snapshot):
        serial_cloud = InMemoryBackend()
        serial = BackupClient(
            serial_cloud, aa_dedupe_config(container_size=64 * KIB))
        s_stats = serial.backup(snapshot_to_memory_source(snapshot))

        parallel_cloud = InMemoryBackend()
        parallel = BackupClient(
            parallel_cloud, aa_dedupe_config(container_size=64 * KIB,
                                             parallel_workers=4))
        p_stats = parallel.backup(snapshot_to_memory_source(snapshot))

        # Identical dedup outcome (order-independent quantities).
        assert p_stats.bytes_scanned == s_stats.bytes_scanned
        assert p_stats.bytes_unique == s_stats.bytes_unique
        assert p_stats.files_total == s_stats.files_total
        assert p_stats.files_tiny == s_stats.files_tiny
        assert p_stats.app_scanned == s_stats.app_scanned
        assert p_stats.app_unique == s_stats.app_unique
        assert parallel.index.sizes() == serial.index.sizes()

    @pytest.mark.parametrize("arm", ["plain", "statcache", "delta"])
    @pytest.mark.parametrize("workers", [2, 7])
    def test_manifest_bytes_identical_to_serial(self, snapshot, workers,
                                                arm):
        # Regression: parallel placement used to interleave container-id
        # and offset allocation across worker threads, so the refs in
        # the manifest — and hence its bytes — differed from a serial
        # run of the same source.  Placement is now serial in source
        # order; a virtual clock removes the only other source of
        # nondeterminism (the created-at stamp).  The "statcache" arm
        # re-backs-up the same snapshot so session 1 exercises the
        # recipe-replay path inside the staged pipeline; the "delta"
        # arm adds similarity + delta compression in the commit stage.
        def manifest_bytes(n_workers):
            kwargs = dict(container_size=64 * KIB,
                          parallel_workers=n_workers)
            if arm == "statcache":
                kwargs["stat_cache"] = True
            elif arm == "delta":
                kwargs["delta_compress"] = True
            cloud = SimulatedCloud(InMemoryBackend(), clock=VirtualClock())
            client = BackupClient(cloud, aa_dedupe_config(**kwargs))
            client.backup(snapshot_to_memory_source(snapshot))
            if arm == "statcache":
                client.backup(snapshot_to_memory_source(snapshot))
            client.close()
            session = 1 if arm == "statcache" else 0
            return cloud.get(naming.manifest_key(session))

        assert manifest_bytes(workers) == manifest_bytes(1)

    def test_parallel_restores_bit_exact(self, snapshot):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=64 * KIB, parallel_workers=3))
        client.backup(snapshot_to_memory_source(snapshot))
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == materialize_snapshot(snapshot)

    def test_parallel_multi_session(self, snapshot):
        gen = WorkloadGenerator(total_bytes=14 * MB, seed=19,
                                max_mean_file_size=1 * MB)
        snaps = list(gen.sessions(2))
        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=64 * KIB, parallel_workers=4))
        client.backup(snapshot_to_memory_source(snaps[0]))
        s2 = client.backup(snapshot_to_memory_source(snaps[1]))
        assert s2.dedup_ratio > 3
        restored, _ = RestoreClient(cloud).restore_to_memory(1)
        assert restored == materialize_snapshot(snaps[1])

    def test_parallel_with_pipelined_uploads(self, snapshot):
        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=64 * KIB, parallel_workers=3,
            pipeline_uploads=True))
        client.backup(snapshot_to_memory_source(snapshot))
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == materialize_snapshot(snapshot)

    def test_config_guards(self):
        with pytest.raises(ConfigError):
            aa_dedupe_config(parallel_workers=0)
        with pytest.raises(ConfigError):
            aa_dedupe_config(parallel_workers=2, index_layout="global")
        from repro.baselines import jungle_disk_config, sam_config
        with pytest.raises(ConfigError):
            jungle_disk_config(parallel_workers=2)
        with pytest.raises(ConfigError):
            sam_config(parallel_workers=2, file_level_first=True,
                       index_layout="app")


class TestPipelineBugfixes:
    """Regression tests for the parallel-path bugs fixed by the staged
    pipeline refactor (see docs/PIPELINE.md)."""

    def test_prepare_stage_warnings_surface(self):
        # Bugfix 1: the old parallel drain merged only `local.ops`, so
        # a warning recorded on the prepare side (here: file size
        # changing between stat and read) vanished from session stats.
        payload = os.urandom(32 * KIB)
        files = [
            SourceFile(path="docs/report.doc", size=64 * KIB,
                       mtime_ns=0, reader=lambda: payload),
            SourceFile(path="docs/other.doc", size=32 * KIB,
                       mtime_ns=0, reader=lambda: payload),
        ]
        # The read stage is shared by every arm of the one stage graph:
        # pooled, inline, and the incremental-only (Jungle Disk) scheme,
        # which used to call sf.read() itself — no warning, no span.
        from repro.baselines import jungle_disk_config
        from repro.obs import Tracer
        for config in (
                aa_dedupe_config(container_size=64 * KIB,
                                 parallel_workers=3),
                aa_dedupe_config(container_size=64 * KIB),
                jungle_disk_config()):
            tracer = Tracer()
            client = BackupClient(InMemoryBackend(), config,
                                  tracer=tracer)
            stats = client.backup(files)
            client.close()
            warned = [w for w in stats.warnings
                      if "size changed during read" in w]
            assert len(warned) == 1, (config.name, stats.warnings)
            assert "docs/report.doc" in warned[0]
            reads = [s for s in tracer.spans() if s.name == "read"]
            assert len(reads) == 2, config.name
            assert stats.ops.read_bytes == 2 * len(payload)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_uploader_poison_item_raises_instead_of_hanging(self):
        # Bugfix 2: drain()/close() used queue.join(); a worker thread
        # killed by a malformed queue item never called task_done(), so
        # the session hung forever.  The outstanding-counter + liveness
        # guard turns that into a prompt BackupError.
        uploader = BackgroundWorker(lambda key, blob: None,
                                    name="test-uploader",
                                    what="pipelined upload")
        uploader._queue.put(object())  # poison: kills the worker thread
        start = time.monotonic()
        with pytest.raises(BackupError):
            # Real work behind the poison is stranded: either submit
            # notices the dead worker or close() reports the stranded
            # item — both must raise rather than hang.
            uploader.submit("containers/c-000000", b"payload")
            uploader.close()
        assert time.monotonic() - start < 8.0

    def test_uploader_error_drops_queued_work(self):
        # Fail-fast: after the first failed upload nothing else is
        # uploaded and the error resurfaces on close().
        seen = []

        def put(key, blob):
            if key == "bad":
                raise IOError("backend exploded")
            seen.append(key)

        uploader = BackgroundWorker(put, name="test-uploader",
                                    what="pipelined upload", depth=8)
        uploader.submit("ok-1", b"x")
        uploader.submit("bad", b"x")
        deadline = time.monotonic() + 5.0
        with pytest.raises(BackupError):
            while time.monotonic() < deadline:
                uploader.submit("late", b"x")
                time.sleep(0.01)
            uploader.close()
        assert "late" not in seen

    def test_placement_error_aborts_stages_promptly(self, monkeypatch):
        # Bugfix 3: a placement (commit) error used to let the stage
        # pool grind through the entire submission window before the
        # session failed.  shutdown(abort=True) now drops queued items,
        # so only the in-flight window gets chunked.
        rng = random.Random(7)
        n_files = 60
        files = [
            SourceFile(path=f"docs/file-{i:03d}.doc", size=16 * KIB,
                       mtime_ns=0,
                       reader=lambda seed=rng.getrandbits(64):
                       random.Random(seed).randbytes(16 * KIB))
            for i in range(n_files)
        ]

        chunk_calls = []
        orig_chunk = BackupClient._chunk_file

        def slow_chunk(self, item):
            chunk_calls.append(item.sf.path)
            time.sleep(0.02)
            return orig_chunk(self, item)

        def bad_place(self, item, stats):
            raise RuntimeError("placement exploded")

        monkeypatch.setattr(BackupClient, "_chunk_file", slow_chunk)
        monkeypatch.setattr(BackupClient, "_place_file", bad_place)
        config = aa_dedupe_config(container_size=64 * KIB,
                                  parallel_workers=4)
        client = BackupClient(InMemoryBackend(), config)
        with pytest.raises(RuntimeError, match="placement exploded"):
            client.backup(files)
        # At most one submission window of files can ever enter the
        # stages before the first commit fails; the abort must drop the
        # still-queued part of that window, so strictly fewer than
        # `window` files get chunked (the old engine ground through all
        # of them — and without the window, through every file).
        # (2 read + 4 chunk + 4 hash workers, twice over).
        window = 2 * (2 + 4 + 4)
        assert window < n_files
        assert len(chunk_calls) < window, (
            f"{len(chunk_calls)} of {n_files} files chunked after abort "
            f"(window {window})")


class TestStagePipeline:
    """Unit tests for the bounded-queue stage machinery itself."""

    @staticmethod
    def _item(seq):
        return WorkItem(seq, None, None, local=None)

    def test_items_flow_through_stages(self):
        order = []

        def double(item):
            item.data = item.seq * 2

        def stash(item):
            order.append(item.seq)

        pipeline = StagePipeline([
            ("double", double, 2, 4),
            ("stash", stash, 1, 4),
        ])
        items = [self._item(i) for i in range(10)]
        for item in items:
            pipeline.submit(item)
        for item in items:
            pipeline.wait(item)
        pipeline.shutdown()
        assert [item.data for item in items] == [i * 2 for i in range(10)]
        assert sorted(order) == list(range(10))
        assert pipeline.items_processed() == {"double": 10, "stash": 10}
        assert set(pipeline.busy_seconds()) == {"double", "stash"}

    def test_stage_error_fails_only_its_item(self):
        def maybe_boom(item):
            if item.seq == 1:
                raise ValueError("bad item")

        pipeline = StagePipeline([("work", maybe_boom, 2, 4)])
        items = [self._item(i) for i in range(3)]
        for item in items:
            pipeline.submit(item)
        pipeline.wait(items[0])
        pipeline.wait(items[2])
        with pytest.raises(ValueError, match="bad item"):
            pipeline.wait(items[1])
        pipeline.shutdown()

    def test_abort_drops_queued_items(self):
        release = time.monotonic() + 0.2

        def slow(item):
            while time.monotonic() < release:
                time.sleep(0.01)

        pipeline = StagePipeline([("slow", slow, 1, 32)])
        items = [self._item(i) for i in range(8)]
        for item in items:
            pipeline.submit(item)
        pipeline.shutdown(abort=True)
        failed = [item for item in items
                  if isinstance(item.error, PipelineAborted)]
        assert failed, "abort should drop still-queued items"
        with pytest.raises(PipelineAborted):
            pipeline.wait(failed[0])

    def test_submit_after_abort_rejected(self):
        pipeline = StagePipeline([("noop", lambda item: None, 1, 4)])
        pipeline.shutdown(abort=True)
        with pytest.raises(PipelineAborted):
            pipeline.submit(self._item(0))

    def test_replay_items_start_done(self):
        item = WorkItem(0, None, None, replay=True)
        assert item.wait(0.0)

    def test_needs_at_least_one_stage(self):
        with pytest.raises(BackupError):
            StagePipeline([])


class TestPipelineSimulator:
    def test_empty(self):
        assert simulate_two_stage_pipeline([], []) == 0.0

    def test_single_item_is_sum(self):
        assert simulate_two_stage_pipeline([3.0], [4.0]) == 7.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            simulate_two_stage_pipeline([1.0], [])

    def test_bounds(self):
        s1 = [1.0, 2.0, 0.5, 3.0, 1.5]
        s2 = [2.0, 1.0, 2.5, 0.5, 2.0]
        makespan = simulate_two_stage_pipeline(s1, s2)
        lower = max(sum(s1), sum(s2))
        assert lower <= makespan <= sum(s1) + sum(s2)

    def test_converges_to_paper_formula(self):
        # Many small items: the DES makespan approaches
        # max(dedup_total, transfer_total) — the paper's BWS.
        n = 500
        s1 = [0.01] * n      # dedup per container
        s2 = [0.03] * n      # upload per container (transfer-bound)
        makespan = simulate_two_stage_pipeline(s1, s2)
        closed_form = backup_window(sum(s1), sum(s2), pipelined=True)
        assert makespan == pytest.approx(closed_form, rel=0.01)

    def test_dedup_bound_case(self):
        n = 300
        makespan = simulate_two_stage_pipeline([0.05] * n, [0.01] * n)
        assert makespan == pytest.approx(
            backup_window(0.05 * n, 0.01 * n), rel=0.01)

    def test_queue_depth_backpressure(self):
        # A slow stage 2 with a tiny queue throttles stage 1.
        s1 = [0.0] * 50
        s2 = [1.0] * 50
        deep = simulate_two_stage_pipeline(s1, s2, queue_depth=50)
        shallow = simulate_two_stage_pipeline(s1, s2, queue_depth=1)
        assert shallow >= deep
