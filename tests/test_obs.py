"""Observability layer: tracer, metrics, profile aggregation, export.

All timed assertions run on a :class:`VirtualClock`, so nesting and
durations are exact — no wall-clock tolerance anywhere.
"""

import json
import threading

import numpy as np
import pytest

from repro.cloud import InMemoryBackend
from repro.core import BackupClient, MemorySource, RestoreClient, aa_dedupe_config
from repro.obs import (
    CHUNK_SIZE_BUCKETS,
    NOOP_TRACER,
    Histogram,
    MetricsRegistry,
    NoopTracer,
    Tracer,
    load_spans,
    render_profile,
    stage_breakdown,
)
from repro.obs.profile import stage_group
from repro.simulate.clock import VirtualClock
from repro.util.units import KIB


@pytest.fixture()
def vclock():
    return VirtualClock()


@pytest.fixture()
def tracer(vclock):
    return Tracer(clock=vclock, metrics=MetricsRegistry())


# ---------------------------------------------------------------------------
class TestSpanNesting:
    def test_nested_spans_record_parent_and_exact_durations(self, tracer,
                                                            vclock):
        with tracer.span("outer", kind="root"):
            vclock.advance(1.0)
            with tracer.span("inner"):
                vclock.advance(0.25)
            vclock.advance(0.5)
        by_name = {s.name: s for s in tracer.spans()}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.duration == pytest.approx(0.25)
        assert outer.duration == pytest.approx(1.75)
        assert outer.attrs == {"kind": "root"}

    def test_spans_ordered_by_start_then_id(self, tracer, vclock):
        with tracer.span("a"):
            pass  # zero duration, same start as b
        with tracer.span("b"):
            vclock.advance(1.0)
        with tracer.span("c"):
            pass
        names = [s.name for s in tracer.spans()]
        assert names == ["a", "b", "c"]

    def test_sequential_siblings_share_parent(self, tracer, vclock):
        with tracer.span("root"):
            for name in ("s1", "s2", "s3"):
                with tracer.span(name):
                    vclock.advance(0.1)
        by_name = {s.name: s for s in tracer.spans()}
        root_id = by_name["root"].span_id
        assert all(by_name[n].parent_id == root_id
                   for n in ("s1", "s2", "s3"))

    def test_threads_nest_independently(self, tracer, vclock):
        done = threading.Event()

        def worker():
            with tracer.span("on-worker"):
                pass
            done.set()

        with tracer.span("on-main"):
            thread = threading.Thread(target=worker, name="w0")
            thread.start()
            thread.join()
        assert done.wait(5)
        by_name = {s.name: s for s in tracer.spans()}
        # the worker's span is a root on its own thread, not a child of
        # the span that happened to be open on the main thread
        assert by_name["on-worker"].parent_id is None
        assert by_name["on-worker"].thread == "w0"

    def test_set_attaches_attributes(self, tracer):
        with tracer.span("op") as sp:
            sp.set("hit", True)
        assert tracer.spans()[0].attrs["hit"] is True

    def test_clear_drops_spans(self, tracer):
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.spans() == []


# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("ops").value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_high_water_mark(self):
        gauge = MetricsRegistry().gauge("depth")
        for level in (2, 7, 3):
            gauge.set(level)
        assert gauge.value == 3
        assert gauge.max_value == 7

    def test_histogram_bucket_edges_are_inclusive_upper(self):
        h = Histogram("sizes", buckets=(10, 100, 1000))
        # a value equal to a bound lands in that bound's bin …
        h.observe(10)
        h.observe(100)
        h.observe(1000)
        # … one past it lands in the next bin; past the last bound is
        # the overflow bin.
        h.observe(10.0001)
        h.observe(1000.0001)
        assert h.counts == [1, 2, 1, 1]
        assert h.bucket_label(0) == "(0, 10]"
        assert h.bucket_label(1) == "(10, 100]"
        assert h.bucket_label(3) == ">1000"
        assert h.count == 5
        assert h.min == 10
        assert h.max == pytest.approx(1000.0001)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(5, 1))
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())

    def test_registry_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        h1 = registry.histogram("x", buckets=(1, 2))
        h2 = registry.histogram("x", buckets=(9, 99))  # ignored
        assert h1 is h2
        assert h1.buckets == (1.0, 2.0)

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2)
        registry.histogram("h", buckets=(1, 10)).observe(5)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 4
        assert snap["gauges"]["g"] == {"value": 2, "max": 2}
        assert snap["histograms"]["h"]["buckets"] == {"(1, 10]": 1}
        rendered = registry.render()
        assert "Counters" in rendered and "Histogram h" in rendered
        assert MetricsRegistry().render() == ""


# ---------------------------------------------------------------------------
class TestNoopTracer:
    def test_disabled_flag_and_inert_span(self):
        assert NOOP_TRACER.enabled is False
        assert NoopTracer.metrics is None
        handle = NOOP_TRACER.span("anything", k=1)
        assert handle is NOOP_TRACER.span("other")  # shared singleton
        with handle as sp:
            sp.set("k", 2)  # swallowed
        assert sp.duration == 0.0
        assert NOOP_TRACER.spans() == []

    def test_default_tracer_everywhere_is_noop(self):
        client = BackupClient(InMemoryBackend(), aa_dedupe_config())
        assert client.tracer is NOOP_TRACER
        assert client.index.tracer is NOOP_TRACER
        assert client._containers.tracer is NOOP_TRACER

    def test_same_session_stats_tracing_on_vs_off(self, rng):
        """The tracer observes; it must never change what the backup
        does — identical SessionStats counters and identical stored
        objects either way."""
        files = {f"docs/f{i}.doc": rng.integers(
            0, 256, 30_000, dtype=np.uint8).tobytes() for i in range(5)}
        files["music/a.mp3"] = rng.integers(
            0, 256, 25_000, dtype=np.uint8).tobytes()

        def run(tracer):
            cloud = InMemoryBackend()
            client = BackupClient(
                cloud, aa_dedupe_config(container_size=32 * KIB),
                tracer=tracer)
            stats = client.backup(MemorySource(files))
            client.close()
            objects = {k: cloud.get(k) for k in cloud.list()
                       if not k.startswith("manifests/")}
            return stats, objects

        stats_off, objects_off = run(None)
        stats_on, objects_on = run(Tracer(clock=VirtualClock()))
        for field in ("files_total", "files_tiny", "bytes_scanned",
                      "bytes_unique", "chunks_unique"):
            assert (getattr(stats_on, field)
                    == getattr(stats_off, field)), field
        assert stats_on.ops.__dict__ == stats_off.ops.__dict__
        # every non-manifest object is byte-identical
        assert objects_on == objects_off


# ---------------------------------------------------------------------------
class TestExportRoundTrip:
    def _sample_spans(self, tracer, vclock):
        with tracer.span("session", scheme="AA-Dedupe"):
            vclock.advance(0.5)
            with tracer.span("chunk", app="doc", bytes=4096):
                vclock.advance(0.25)

    def test_jsonl_round_trips_spans_exactly(self, tracer, vclock):
        self._sample_spans(tracer, vclock)
        text = tracer.export_jsonl()
        loaded = load_spans(text)
        assert loaded == tracer.spans()

    def test_events_are_chrome_trace_compatible(self, tracer, vclock):
        self._sample_spans(tracer, vclock)
        for line in tracer.export_jsonl().splitlines():
            event = json.loads(line)
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid",
                                  "args"}
        # ts/dur are microseconds
        event = json.loads(tracer.export_jsonl().splitlines()[-1])
        assert event["name"] == "chunk"
        assert event["dur"] == pytest.approx(250_000)

    def test_write_jsonl_and_load_from_file(self, tracer, vclock,
                                            tmp_path):
        self._sample_spans(tracer, vclock)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        with open(path, encoding="utf-8") as fh:
            loaded = load_spans(fh)
        assert loaded == tracer.spans()

    def test_load_skips_foreign_phases_and_array_syntax(self):
        lines = [
            "[",
            '{"name": "meta", "ph": "M", "ts": 0, "args": {}},',
            '{"name": "op", "ph": "X", "ts": 1000000, "dur": 500000, '
            '"pid": 0, "tid": 0, "args": {"sid": 1}},',
            "]",
        ]
        spans = load_spans(lines)
        assert [s.name for s in spans] == ["op"]
        assert spans[0].start == pytest.approx(1.0)
        assert spans[0].duration == pytest.approx(0.5)


# ---------------------------------------------------------------------------
class TestProfile:
    def test_stage_group_mapping(self):
        assert stage_group("chunk.cut") == "chunk"
        assert stage_group("hash") == "hash"
        assert stage_group("index.lookup") == "index"
        assert stage_group("upload") == "transfer"
        assert stage_group("cloud.put.attempt") == "transfer"
        assert stage_group("retry.sleep") == "transfer"
        assert stage_group("container.seal") == "container"
        assert stage_group("manifest") == "other"

    def test_self_times_sum_to_window(self, tracer, vclock):
        with tracer.span("session"):
            with tracer.span("chunk", app="doc"):
                vclock.advance(1.0)
            with tracer.span("upload", app="doc"):
                vclock.advance(2.0)
            vclock.advance(0.5)  # engine glue: session self time
        profile = stage_breakdown(tracer.spans())
        assert profile.window_seconds == pytest.approx(3.5)
        assert profile.accounted_seconds == pytest.approx(3.5)
        assert profile.stages["session"].self_seconds == pytest.approx(0.5)
        assert profile.outside_seconds == 0.0

    def test_spans_outside_root_tracked_separately(self, tracer, vclock):
        with tracer.span("cloud.list"):  # client setup, pre-session
            vclock.advance(0.25)
        with tracer.span("session"):
            vclock.advance(1.0)
        profile = stage_breakdown(tracer.spans())
        assert profile.window_seconds == pytest.approx(1.0)
        assert profile.accounted_seconds == pytest.approx(1.0)
        assert profile.outside_seconds == pytest.approx(0.25)

    def test_app_attribution_inherits_from_ancestors(self, tracer,
                                                     vclock):
        with tracer.span("session"):
            with tracer.span("upload", app="mp3"):
                with tracer.span("cloud.put"):  # no app attr of its own
                    vclock.advance(1.0)
        profile = stage_breakdown(tracer.spans())
        assert profile.apps["mp3"]["transfer"] == pytest.approx(1.0)

    def test_render_lists_per_app_shares(self, tracer, vclock):
        with tracer.span("session"):
            with tracer.span("chunk", app="doc"):
                vclock.advance(3.0)
            with tracer.span("hash", app="doc"):
                vclock.advance(1.0)
        text = render_profile(tracer.spans())
        assert "Stage breakdown" in text
        assert "Per-application stage shares" in text
        doc_row = next(line for line in text.splitlines()
                       if line.startswith("doc"))
        assert "75.0" in doc_row and "25.0" in doc_row

    def test_empty_trace_renders_placeholder(self):
        assert render_profile([]) == "trace contains no spans"
        assert stage_breakdown([]).window_seconds == 0.0


# ---------------------------------------------------------------------------
class TestEndToEndProfiling:
    def test_backup_profile_sums_to_window_and_is_lossless(self, rng):
        from repro.cloud import SimulatedCloud

        files = {
            "docs/a.doc": rng.integers(0, 256, 60_000,
                                       dtype=np.uint8).tobytes(),
            "music/b.mp3": rng.integers(0, 256, 50_000,
                                        dtype=np.uint8).tobytes(),
            "misc/tiny.txt": b"x" * 100,
        }
        clock = VirtualClock()
        tracer = Tracer(clock=clock, metrics=MetricsRegistry())
        cloud = SimulatedCloud(InMemoryBackend(), clock=clock,
                               tracer=tracer)
        client = BackupClient(
            cloud, aa_dedupe_config(container_size=64 * KIB),
            tracer=tracer)
        client.backup(MemorySource(files))
        client.close()

        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {"session", "file", "chunk", "chunk.cut", "hash",
                "index.lookup", "index.insert", "container.seal",
                "upload", "cloud.put", "cloud.put.attempt",
                "manifest"} <= names

        profile = stage_breakdown(spans)
        # single-threaded: per-stage self times sum exactly to the
        # session's backup window
        assert profile.accounted_seconds == pytest.approx(
            profile.window_seconds, abs=1e-9)
        # JSONL export re-renders bit-identically
        assert (render_profile(load_spans(tracer.export_jsonl()))
                == render_profile(spans))
        # metrics saw every chunk
        chunk_hist = tracer.metrics.histogram("chunk_bytes",
                                              CHUNK_SIZE_BUCKETS)
        assert chunk_hist.count > 0
        assert tracer.metrics.counter("index_lookups_total").value > 0

    def test_pipelined_uploads_keep_app_labels(self):
        # Regression: a pipelined upload used to read the app label on
        # the thread that sealed the container, which never had one.
        # Own generator: the session-wide `rng` stream feeds later tests.
        rng = np.random.default_rng(29)
        files = {f"docs/d{i}.doc": rng.integers(
            0, 256, 90_000, dtype=np.uint8).tobytes() for i in range(4)}
        files.update({f"vm/disk{i}.vmdk": rng.integers(
            0, 256, 150_000, dtype=np.uint8).tobytes() for i in range(3)})

        def upload_apps(pipelined):
            tracer = Tracer(clock=VirtualClock())
            client = BackupClient(InMemoryBackend(), aa_dedupe_config(
                container_size=64 * KIB, pipeline_uploads=pipelined),
                tracer=tracer)
            client.backup(MemorySource(files))
            client.close()
            return sorted(str(s.attrs.get("app")) for s in tracer.spans()
                          if s.name == "upload")

        serial = upload_apps(False)
        assert {"doc", "vmdk"} <= set(serial)
        assert upload_apps(True) == serial

    def test_restore_spans_cover_fetches(self, rng):
        files = {"docs/a.doc": rng.integers(
            0, 256, 40_000, dtype=np.uint8).tobytes()}
        cloud = InMemoryBackend()
        client = BackupClient(cloud,
                              aa_dedupe_config(container_size=32 * KIB))
        client.backup(MemorySource(files))
        vclock = VirtualClock()
        tracer = Tracer(clock=vclock)
        restored, _ = RestoreClient(cloud, tracer=tracer).restore_to_memory(0)
        assert restored == files
        names = [s.name for s in tracer.spans()]
        assert "restore" in names
        assert "restore.file" in names
        assert "restore.container_fetch" in names
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["restore.file"].parent_id == \
            by_name["restore"].span_id

    def test_retry_attempts_show_as_sibling_spans(self):
        from repro.cloud import (ChaosBackend, RetryPolicy,
                                 SimulatedCloud)

        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        cloud = SimulatedCloud(
            ChaosBackend(InMemoryBackend(), seed=1,
                         transient_error_rate=0.5),
            clock=clock, tracer=tracer,
            retry=RetryPolicy(max_attempts=10, seed=3))
        for i in range(10):
            cloud.put(f"k{i}", b"payload")
        spans = tracer.spans()
        puts = [s for s in spans if s.name == "cloud.put"]
        attempts = [s for s in spans if s.name == "cloud.put.attempt"]
        sleeps = [s for s in spans if s.name == "retry.sleep"]
        assert len(puts) == 10
        assert len(attempts) > 10  # faults forced extra attempts
        assert sleeps, "retries must surface retry.sleep spans"
        # per-call attempt spans are children of their logical put
        put_ids = {s.span_id for s in puts}
        assert all(a.parent_id in put_ids for a in attempts)
        assert sum(s.attrs["attempts"] for s in puts) == len(attempts)
        assert tracer.metrics.counter(
            "cloud_attempts_total").value == len(attempts)
