"""Tests for parallel per-application dedup and the pipeline simulator."""

import os
import random
import threading
import time

import pytest

from repro.cloud import InMemoryBackend, SimulatedCloud
from repro.core import (
    BackupClient,
    RestoreClient,
    aa_dedupe_config,
)
from repro.core import naming
from repro.core.pipeline import BackgroundWorker
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

    @pytest.mark.parametrize("arm", ["plain", "statcache", "delta",
                                     "global"])
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
        # arm adds similarity + delta compression in the commit stage;
        # the "global" arm runs one undivided index — no worker touches
        # the index, so its layout is free.
        def manifest_bytes(n_workers):
            kwargs = dict(container_size=64 * KIB,
                          parallel_workers=n_workers)
            if arm == "statcache":
                kwargs["stat_cache"] = True
            elif arm == "delta":
                kwargs["delta_compress"] = True
            elif arm == "global":
                kwargs["index_layout"] = "global"
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
        from repro.baselines import jungle_disk_config, sam_config
        with pytest.raises(ConfigError):
            jungle_disk_config(parallel_workers=2)
        with pytest.raises(ConfigError):
            sam_config(parallel_workers=2, file_level_first=True,
                       index_layout="app")


def _doc_files(n_files, size=16 * KIB, seed=7):
    rng = random.Random(seed)
    return [
        SourceFile(path=f"docs/file-{i:03d}.doc", size=size, mtime_ns=1,
                   reader=lambda seed=rng.getrandbits(64):
                   random.Random(seed).randbytes(size))
        for i in range(n_files)
    ]


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
        # session failed.  Closing the item iterator now cancels the
        # queued prepare jobs, so only the running ones get chunked.
        n_files = 60
        files = _doc_files(n_files)

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
        # At most one submission window of files can ever be queued
        # before the first commit fails; the shutdown must cancel the
        # still-queued part of that window, so strictly fewer than
        # `window` files get chunked (the old engine ground through all
        # of them — and without the window, through every file).
        window = 6 * config.parallel_workers
        assert window < n_files
        assert len(chunk_calls) < window, (
            f"{len(chunk_calls)} of {n_files} files chunked after abort "
            f"(window {window})")


class TestStagePipeline:
    """The staged engine's contract, driven through ``BackupClient``
    (the cases keep the ids they had when a hand-rolled stage pipeline
    sat behind them)."""

    WORKERS = 3

    def _client(self, **overrides):
        return BackupClient(InMemoryBackend(), aa_dedupe_config(
            container_size=64 * KIB, parallel_workers=self.WORKERS,
            **overrides))

    @staticmethod
    def _record(monkeypatch, name, calls):
        """Log every call of stage callable ``name`` as (name, path)."""
        orig = getattr(BackupClient, name)

        def recording(self, item, *rest):
            calls.append((name, item.sf.path))
            return orig(self, item, *rest)

        monkeypatch.setattr(BackupClient, name, recording)

    def test_items_flow_through_stages(self, monkeypatch):
        calls = []
        for name in ("_read_file", "_chunk_file", "_hash_file",
                     "_place_file"):
            self._record(monkeypatch, name, calls)
        files = _doc_files(20)
        paths = [sf.path for sf in files]
        client = self._client()
        stats = client.backup(files)
        client.close()
        # Every file ran each stage exactly once, in stage order ...
        for path in paths:
            assert [n for n, p in calls if p == path] == [
                "_read_file", "_chunk_file", "_hash_file", "_place_file"]
        # ... and was committed in source order, however the pool
        # interleaved the preparation.
        assert [p for n, p in calls if n == "_place_file"] == paths
        assert stats.files_total == len(files)
        assert set(stats.stage_busy_seconds) == {"read", "chunk", "hash",
                                                 "commit"}

    def test_stage_error_fails_only_its_item(self, monkeypatch):
        files = _doc_files(12)
        bad = 5
        calls = []
        self._record(monkeypatch, "_hash_file", calls)
        self._record(monkeypatch, "_place_file", calls)

        def boom():
            # Fail only once the next file is through its stages, so
            # the assertion about it below cannot race the shutdown.
            deadline = time.monotonic() + 5.0
            while (("_hash_file", files[bad + 1].path) not in calls
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            raise ValueError("bad item")

        files[bad] = SourceFile(path=files[bad].path, size=16 * KIB,
                                mtime_ns=0, reader=boom)
        client = self._client()
        # The stage's own exception, not a wrapper ...
        with pytest.raises(ValueError, match="bad item"):
            client.backup(files)
        # ... surfacing at the failed file's turn in source order: every
        # file before it was committed, nothing at or after it was.
        placed = [p for n, p in calls if n == "_place_file"]
        assert placed == [sf.path for sf in files[:bad]]
        # Its neighbours in the window were prepared regardless.
        hashed = {p for n, p in calls if n == "_hash_file"}
        assert files[bad].path not in hashed
        assert files[bad + 1].path in hashed

    def test_abort_drops_queued_items(self, monkeypatch):
        # After a placement error the queued prepare jobs are cancelled:
        # only a job a worker picks up before the shutdown lands can
        # still start — at most one per worker.
        reads = []
        self._record(monkeypatch, "_read_file", reads)
        orig_hash = BackupClient._hash_file

        def slow_hash(self, item):
            time.sleep(0.02)
            return orig_hash(self, item)

        reads_at_error = []

        def bad_place(self, item, stats):
            reads_at_error.append(len(reads))
            raise RuntimeError("placement exploded")

        monkeypatch.setattr(BackupClient, "_hash_file", slow_hash)
        monkeypatch.setattr(BackupClient, "_place_file", bad_place)
        client = self._client()
        with pytest.raises(RuntimeError, match="placement exploded"):
            client.backup(_doc_files(60))
        assert len(reads) - reads_at_error[0] <= self.WORKERS
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("aa-prepare")]

    def test_replay_items_start_done(self, monkeypatch):
        # A stat-cache replay never enters the pool: the second session
        # over an unchanged source prepares (and reads) nothing.
        files = _doc_files(10)
        client = self._client(stat_cache=True)
        client.backup(files)
        prepared = []
        self._record(monkeypatch, "_prepare", prepared)
        stats = client.backup(files)
        client.close()
        assert stats.files_unchanged == len(files)
        assert prepared == []
        assert stats.ops.read_bytes == 0

    def test_thread_budget(self, snapshot):
        # One prepare pool: `parallel_workers` threads, plus the pack
        # and upload workers — not a pool per stage.
        before = set(threading.enumerate())
        seen = set()
        source = snapshot_to_memory_source(snapshot)

        def watched(sf):
            def read():
                seen.update(t.name for t in threading.enumerate()
                            if t not in before)
                return sf.read()
            return SourceFile(path=sf.path, size=sf.size,
                              mtime_ns=sf.mtime_ns, reader=read)

        client = BackupClient(InMemoryBackend(), aa_dedupe_config(
            container_size=64 * KIB, parallel_workers=2,
            pipeline_uploads=True))
        client.backup(map(watched, source))
        client.close()
        prepare = {name for name in seen if name.startswith("aa-prepare")}
        assert len(prepare) == 2
        assert seen - prepare == {"aa-pack", "aa-uploader"}
        assert set(threading.enumerate()) <= before


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
