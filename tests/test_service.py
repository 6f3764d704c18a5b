"""Tests for the declarative backup service layer (repro.service)."""

import pytest

from repro.baselines import build_scheme
from repro.cloud import InMemoryBackend, NamespacedBackend
from repro.core import naming
from repro.core.filecache import read_epoch
from repro.core.restore import RestoreClient
from repro.core.retention import RetainLastN, RetainMaxAge
from repro.core.source import MemorySource
from repro.errors import ConfigError, TransientCloudError
from repro.service import (
    BackupService,
    CallableJobSource,
    HookSet,
    HookSpec,
    IntervalSchedule,
    JobClock,
    JobSpec,
    SyntheticJobSource,
    loads_config,
    parse_config,
    run_hook,
)


# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_minimal_yaml(self):
        spec = loads_config(
            "jobs:\n"
            "  - name: docs\n"
            "    source: {kind: synthetic, files: 3}\n"
            "    schedule: {interval: 3600, offset: 60}\n"
            "    retention: {policy: retain-last, count: 2}\n")
        job = spec.job("docs")
        assert job.scheme == "AA-Dedupe"
        assert job.schedule == IntervalSchedule(3600, 60)
        assert job.retention == RetainLastN(2)

    def test_string_source_is_directory(self):
        spec = parse_config({"jobs": [{"name": "j", "source": "/data"}]})
        assert spec.job("j").describe_source() == "/data"

    def test_max_age_retention(self):
        spec = parse_config({"jobs": [{
            "name": "j", "source": "/data",
            "retention": {"policy": "max-age", "seconds": 86400}}]})
        assert spec.job("j").retention == RetainMaxAge(86400.0)

    @pytest.mark.parametrize("doc, fragment", [
        ({"jobs": [{"name": "a/b", "source": "/x"}]}, "namespace-safe"),
        ({"jobs": [{"name": "a", "source": "/x", "scheme": "nope"}]},
         "unknown scheme"),
        ({"jobs": [{"name": "a", "source": "/x", "bogus": 1}]},
         "unknown key"),
        ({"jobs": [{"name": "a", "source": "/x"},
                   {"name": "a", "source": "/y"}]}, "duplicate"),
        ({"jobs": [{"name": "a", "source": "/x",
                    "retention": {"policy": "weekly"}}]},
         "unknown retention policy"),
        ({"jobs": [{"name": "a", "source": "/x",
                    "schedule": {"interval": -5}}]}, "interval"),
        ({"jobs": [{"name": "a", "source": "/x", "hooks":
                    {"pre": [{"builtin": "no-such"}]}}]}, "builtin"),
        ({"jobs": [{"name": "a", "source": "/x", "hooks":
                    {"failure_policy": "explode"}}]}, "failure_policy"),
        ({"jobs": [{"name": "a", "source": "/x",
                    "options": {"no_such_knob": 1}}]}, "options"),
        ({"jobs": []}, "no jobs"),
        ({}, "jobs"),
        ([], "mapping"),
        ({"jobs": [{"name": "a", "source": "/x", "delta": True}]},
         "delta"),
    ])
    def test_bad_configs_raise(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(doc)

    @pytest.mark.parametrize("field", [
        "verify_on_restore", "read_workers", "chunk_workers",
        "hash_workers", "stage_queue_depth", "upload_queue_depth",
        "journal_flush_interval", "delta_cutoff", "delta_min_chunk",
        "delta_sim_capacity", "delta_base_cache", "file_level_first",
        "fixed_policy", "delta_max_chain", "delta_compress"])
    def test_removed_scheme_knobs_rejected_by_name(self, field):
        # These SchemeConfig fields are gone (constants now); a job
        # file still naming one must fail loudly, naming the field.
        with pytest.raises(ConfigError, match=field):
            parse_config({"jobs": [{"name": "a", "source": "/x",
                                    "options": {field: 1}}]})

    def test_invalid_yaml_is_config_error(self):
        with pytest.raises(ConfigError, match="YAML"):
            loads_config("jobs: [unclosed\n  - ")

    def test_app_chunkers_validated_eagerly(self):
        # Each category has one chunker: a per-application override is
        # refused as a job key and as a scheme option alike.
        with pytest.raises(ConfigError, match="app_chunkers"):
            parse_config({"jobs": [{
                "name": "j", "source": "/x",
                "app_chunkers": {"vmdk": "seqcdc"}}]})
        with pytest.raises(ConfigError, match="app_chunkers"):
            build_scheme("AA-Dedupe",
                         options={"app_chunkers": {"vmdk": "seqcdc"}})


# ----------------------------------------------------------------------
class TestSchedule:
    def test_occurrence_arithmetic(self):
        s = IntervalSchedule(3600, offset=600)
        assert s.first() == 600
        assert s.next_after(0) == 600
        assert s.next_after(600) == 4200
        assert s.next_after(4199.9) == 4200

    def test_invalid_schedule(self):
        with pytest.raises(ConfigError):
            IntervalSchedule(0)
        with pytest.raises(ConfigError):
            IntervalSchedule(60, offset=-1)

    def test_job_clock_rolls_forward(self):
        clock = JobClock(IntervalSchedule(100))
        assert clock.due(0)
        clock.note_run(0, ok=True)
        assert clock.next_due == 100
        assert not clock.due(99)
        clock.note_run(100, ok=False)
        assert clock.failures == 1 and clock.consecutive_failures == 1
        clock.note_run(200, ok=True)
        assert clock.consecutive_failures == 0 and clock.runs == 3

    def test_unscheduled_job_never_due(self):
        clock = JobClock(None)
        assert clock.next_due is None and not clock.due(1e9)


# ----------------------------------------------------------------------
class TestRetentionPolicies:
    def test_retain_last_n_orders_by_timestamp(self):
        sessions = {0: 50.0, 1: 10.0, 2: 30.0}
        assert RetainLastN(2).select(sessions) == {0, 2}
        assert RetainLastN(10).select(sessions) == {0, 1, 2}

    def test_retain_last_ties_break_by_id(self):
        sessions = {3: 10.0, 4: 10.0, 5: 10.0}
        assert RetainLastN(2).select(sessions) == {4, 5}

    def test_max_age_keeps_recent_and_always_newest(self):
        sessions = {0: 0.0, 1: 100.0, 2: 200.0}
        assert RetainMaxAge(50).select(sessions, now=210.0) == {2}
        assert RetainMaxAge(150).select(sessions, now=210.0) == {1, 2}
        # Even when everything is "too old" the newest survives.
        assert RetainMaxAge(1).select(sessions, now=1e6) == {2}

    def test_invalid_policies(self):
        with pytest.raises(ConfigError):
            RetainLastN(0)
        with pytest.raises(ConfigError):
            RetainMaxAge(0)


# ----------------------------------------------------------------------
class TestHookExecution:
    def test_builtin_hooks(self):
        assert run_hook(HookSpec(builtin="noop"), {}).ok
        result = run_hook(HookSpec(builtin="fail"), {})
        assert not result.ok and "fail" in result.detail

    def test_shell_hook_success_and_failure(self):
        assert run_hook(HookSpec(command="true"), {}).ok
        result = run_hook(HookSpec(command="exit 3"), {})
        assert not result.ok and "exit 3" in result.detail

    def test_shell_hook_sees_job_env(self):
        result = run_hook(HookSpec(command='test "$REPRO_JOB" = docs'),
                          {"REPRO_JOB": "docs"})
        assert result.ok

    def test_hook_spec_needs_exactly_one_kind(self):
        with pytest.raises(ConfigError):
            HookSpec()
        with pytest.raises(ConfigError):
            HookSpec(command="true", builtin="noop")


def _job(name, hooks=None, **kwargs):
    kwargs.setdefault("source", SyntheticJobSource(name, files=3,
                                                   file_kib=16))
    if hooks is not None:
        kwargs["hooks"] = hooks
    return JobSpec(name=name, **kwargs)


def _service(*jobs, backend=None):
    # Build the ServiceSpec programmatically (JobSource instances are
    # not expressible in YAML).
    from repro.service.spec import ServiceSpec
    return BackupService(ServiceSpec(jobs=tuple(jobs)), backend=backend)


class TestHookSemantics:
    """The four pre/post × abort/warn behaviours (satellite: hooks)."""

    def test_failing_pre_hook_abort_skips_engine(self):
        svc = _service(_job("a", hooks=HookSet(
            pre=(HookSpec(builtin="fail"),), failure_policy="abort")))
        (report,) = svc.run().reports
        svc.close()
        assert report.state == "FAILED"
        assert report.session_id is None and report.stats is None
        # The engine never ran: no manifest in the job's namespace.
        view = svc.jobs[0].view
        assert list(view.list(naming.MANIFEST_PREFIX)) == []
        assert "pre-hook" in report.error

    def test_failing_pre_hook_warn_still_runs(self):
        svc = _service(_job("a", hooks=HookSet(
            pre=(HookSpec(builtin="fail"),), failure_policy="warn")))
        (report,) = svc.run().reports
        svc.close()
        assert report.state == "SUCCEEDED"
        assert report.session_id == 0
        assert len(report.hook_failures) == 1

    def test_failing_post_hook_abort_fails_after_success(self):
        svc = _service(_job("a", hooks=HookSet(
            post=(HookSpec(builtin="fail"),), failure_policy="abort")))
        (report,) = svc.run().reports
        svc.close()
        assert report.state == "FAILED"
        # ... but the session itself completed: the manifest exists.
        view = svc.jobs[0].view
        assert list(view.list(naming.MANIFEST_PREFIX)) != []
        assert report.session_id == 0
        assert "post-hook" in report.error

    def test_failing_post_hook_warn_keeps_success(self):
        svc = _service(_job("a", hooks=HookSet(
            post=(HookSpec(builtin="fail"),), failure_policy="warn")))
        (report,) = svc.run().reports
        svc.close()
        assert report.state == "SUCCEEDED"
        assert len(report.hook_failures) == 1

    def test_failed_job_sets_exit_code_one(self):
        svc = _service(
            _job("bad", hooks=HookSet(pre=(HookSpec(builtin="fail"),))),
            _job("good"))
        report = svc.run()
        svc.close()
        assert report.exit_code == 1
        assert [r.state for r in report.reports] == \
            ["FAILED", "SUCCEEDED"]


# ----------------------------------------------------------------------
def _corpus(tag, size=40 * 1024):
    """Deterministic pseudo-random files, ≥ tiny threshold."""
    import zlib
    import numpy as np
    rng = np.random.default_rng(zlib.crc32(tag.encode()))
    return rng.integers(0, 256, size, dtype=np.uint8).tobytes()


class TestServiceRunner:
    def _three_job_spec(self):
        from repro.service.spec import ServiceSpec
        return ServiceSpec(jobs=(
            JobSpec(name="docs",
                    source=SyntheticJobSource("docs", files=4,
                                              file_kib=16),
                    schedule=IntervalSchedule(3600),
                    retention=RetainLastN(2)),
            JobSpec(name="media", scheme="Avamar", chunker="seqcdc",
                    source=SyntheticJobSource("media", files=3,
                                              file_kib=24),
                    schedule=IntervalSchedule(7200, offset=600),
                    retention=RetainMaxAge(7200)),
            JobSpec(name="vm", chunker="seqcdc",
                    source=SyntheticJobSource("vm", files=2,
                                              file_kib=48),
                    schedule=IntervalSchedule(3600, offset=1800)),
        ))

    def _snapshot(self, backend):
        return {key: backend.get(key) for key in backend.list("")}

    def test_heterogeneous_jobs_share_one_backend(self):
        backend = InMemoryBackend()
        svc = BackupService(self._three_job_spec(), backend=backend)
        report = svc.run(until=4 * 3600)
        svc.close()
        assert report.exit_code == 0
        by_job = {}
        for r in report.reports:
            by_job.setdefault(r.job, []).append(r)
        assert set(by_job) == {"docs", "media", "vm"}
        # docs hourly (0..14400 -> 5 runs), media at 600+7800,
        # vm at 1800+5400+9000+12600.
        assert len(by_job["docs"]) == 5
        assert len(by_job["media"]) == 2
        assert len(by_job["vm"]) == 4
        # RetainLastN(2) on docs dropped old sessions through real GC.
        assert any(r.retention and r.retention.dropped
                   for r in by_job["docs"])
        # All three namespaces coexist on the one backend.
        namespaces = {key.split("/")[1]
                      for key in backend.list(naming.TENANT_PREFIX)}
        assert namespaces == {"docs", "media", "vm"}

    def test_scheduled_loop_is_deterministic(self):
        snaps = []
        for _ in range(2):
            backend = InMemoryBackend()
            svc = BackupService(self._three_job_spec(), backend=backend)
            svc.run(until=4 * 3600)
            svc.close()
            snaps.append(self._snapshot(backend))
        assert snaps[0] == snaps[1]

    def test_container_ids_stay_in_rank_stride(self):
        backend = InMemoryBackend()
        svc = BackupService(self._three_job_spec(), backend=backend)
        svc.run(until=2 * 3600)
        svc.close()
        stride = 1_000_000
        ranks = set()
        for key in backend.list(naming.CONTAINER_PREFIX):
            ranks.add(int(key[len(naming.CONTAINER_PREFIX):]) // stride)
        assert ranks  # docs (rank 0) uses containers
        assert ranks <= {0, 1, 2}

    def test_reinvocation_resumes_sessions_and_container_ids(self):
        backend = InMemoryBackend()
        spec = self._three_job_spec()
        svc = BackupService(spec, backend=backend)
        svc.run(until=3600)
        first_sessions = {r.job: r.session_id for r in svc.reports}
        containers_before = set(backend.list(naming.CONTAINER_PREFIX))
        svc.close()
        # Fresh service over the same backend = a new CLI invocation.
        svc2 = BackupService(self._three_job_spec(), backend=backend,
                             jobs=["docs"])
        (report,) = svc2.run().reports
        svc2.close()
        assert report.session_id == first_sessions["docs"] + 1
        # New containers continue above the old ids, never clobber.
        assert containers_before <= \
            set(backend.list(naming.CONTAINER_PREFIX))

    def test_unreadable_manifest_fails_its_job_not_the_service(self):
        # Building a service reads no manifest: a job whose store
        # cannot be read fails its own run (exit code 1), and the other
        # jobs run.
        backend = InMemoryBackend()
        svc = _service(_job("bad"), _job("good"), backend=backend)
        svc.run()
        svc.close()
        key = naming.tenant_key("bad", naming.manifest_key(0))
        backend.put(key, b"not a manifest")
        svc = _service(_job("bad"), _job("good"), backend=backend)
        report = svc.run()
        svc.close()
        assert report.exit_code == 1
        bad, good = report.reports
        assert bad.state == "FAILED" and bad.session_id is None
        assert bad.error.startswith("RestoreError: malformed manifest")
        assert good.state == "SUCCEEDED" and good.session_id == 1
        assert backend.get(key) == b"not a manifest"
        assert naming.session_ids(NamespacedBackend(backend, "bad")) == [0]

    def test_job_subset_keeps_spec_rank(self):
        backend = InMemoryBackend()
        svc = BackupService(self._three_job_spec(), backend=backend,
                            jobs=["vm"])
        svc.run()
        svc.close()
        # vm is rank 2 in the spec even when run alone.
        vm_containers = [
            int(key[len(naming.CONTAINER_PREFIX):])
            for key in backend.list(naming.CONTAINER_PREFIX)]
        assert vm_containers
        assert all(2_000_000 <= c < 3_000_000 for c in vm_containers)

    def test_unknown_job_selection_raises(self):
        with pytest.raises(ConfigError, match="no job named"):
            BackupService(self._three_job_spec(),
                          backend=InMemoryBackend(), jobs=["nope"])

    def test_restore_is_bit_exact_through_job_view(self):
        files = {"docs/a.doc": _corpus("a"), "docs/b.txt": _corpus("b")}
        backend = InMemoryBackend()
        svc = _service(
            JobSpec(name="j", source=CallableJobSource(
                lambda run: MemorySource(dict(files)))),
            backend=backend)
        (report,) = svc.run().reports
        svc.close()
        assert report.state == "SUCCEEDED"
        view = NamespacedBackend(backend, "j")
        restored, _ = RestoreClient(view).restore_to_memory(
            report.session_id)
        assert restored == files

    def test_failed_run_gives_its_session_id_back(self):
        # The job's next run takes the failed session's id again, so it
        # resumes that session's journal instead of uploading it anew.
        files = {f"docs/r{i}.doc": _corpus(f"r{i}") for i in range(4)}

        class FailOnce(InMemoryBackend):
            """Fails the third container PUT, once."""
            countdown = 3

            def _put(self, key, data):
                if key.startswith(naming.CONTAINER_PREFIX):
                    self.countdown -= 1
                    if self.countdown == 0:
                        raise TransientCloudError(f"injected: put {key}")
                super()._put(key, data)

        backend = FailOnce()
        svc = _service(
            JobSpec(name="j", container_size=32 * 1024,
                    source=CallableJobSource(
                        lambda run: MemorySource(dict(files)))),
            backend=backend)
        svc.run()
        failed, report = svc.run().reports
        svc.close()
        assert failed.state == "FAILED"
        assert report.state == "SUCCEEDED" and report.session_id == 0
        assert report.stats.resume_skipped_objects > 0
        view = NamespacedBackend(backend, "j")
        restored, _ = RestoreClient(view).restore_to_memory(0)
        assert restored == files
        assert view.list(naming.JOURNAL_PREFIX) == []


# ----------------------------------------------------------------------
class TestRetentionDrivenGC:
    """Satellite: retention-driven GC churn on a shared backend."""

    def _shared_files(self):
        return {"shared/big.doc": _corpus("shared", 64 * 1024)}

    def _spec(self):
        from repro.service.spec import ServiceSpec
        shared = self._shared_files()

        def job_a(run):
            files = dict(shared)
            # Private content that changes every run: dropping an old
            # session makes its private chunks garbage.
            files["private/a.doc"] = _corpus(f"a-{run}", 32 * 1024)
            return MemorySource(files)

        def job_b(run):
            return MemorySource(dict(shared))

        # Containerless scheme: chunks land in the *shared* chunks/
        # pool, so identical content is stored once for both jobs and
        # cross-job liveness is a real constraint.  b runs at t=0 and a
        # at t=1, 2, 3.
        return ServiceSpec(jobs=(
            JobSpec(name="a", scheme="Avamar",
                    source=CallableJobSource(job_a),
                    schedule=IntervalSchedule(1, offset=1),
                    retention=RetainLastN(2)),
            JobSpec(name="b", scheme="Avamar",
                    source=CallableJobSource(job_b),
                    schedule=IntervalSchedule(10)),
        ))

    def test_retention_never_deletes_sessions_another_job_needs(self):
        backend = InMemoryBackend()
        svc = BackupService(self._spec(), backend=backend)
        report = svc.run(until=3)              # b pins the shared chunks
        svc.close()
        assert [r.job for r in report.reports] == ["b", "a", "a", "a"]
        last = report.reports[-1]
        assert last.retention is not None
        assert last.retention.dropped == [0]
        assert last.retention.retained == [1, 2]
        assert last.retention.swept      # run-0 private chunks died
        assert not last.retention.problems
        # b's session still restores bit-exact: the shared chunks the
        # dropped a-session also referenced were never collected.
        view_b = NamespacedBackend(backend, "b")
        restored, _ = RestoreClient(view_b).restore_to_memory(0)
        assert restored == self._shared_files()
        # a's retained sessions survived too.
        view_a = NamespacedBackend(backend, "a")
        for sid in (1, 2):
            RestoreClient(view_a).restore_to_memory(sid)

    def test_data_deleting_sweep_bumps_tenant_statcache_epochs(self):
        backend = InMemoryBackend()
        svc = BackupService(self._spec(), backend=backend)
        svc.run(until=0)                       # b alone
        view_b = NamespacedBackend(backend, "b")
        epoch_before = read_epoch(view_b)
        report = svc.run(until=3).reports[-1]  # a, three times
        svc.close()
        assert report.retention.swept
        assert report.retention.statcache_invalidated
        # Every tenant's epoch moved, not just the job that ran GC.
        assert read_epoch(view_b) > epoch_before
        view_a = NamespacedBackend(backend, "a")
        assert read_epoch(view_a) > 0

    def test_manifest_only_drop_keeps_caches_warm(self):
        from repro.service.spec import ServiceSpec
        shared = self._shared_files()
        backend = InMemoryBackend()
        # Both jobs back up identical content; dropping one session
        # deletes no data (everything stays referenced), so stat caches
        # must not be invalidated.
        svc = BackupService(ServiceSpec(jobs=(
            JobSpec(name="a", scheme="Avamar",
                    source=CallableJobSource(
                        lambda run: MemorySource(dict(shared))),
                    schedule=IntervalSchedule(1),
                    retention=RetainLastN(1)),
        )), backend=backend)
        report = svc.run(until=1).reports[-1]  # runs at t=0 and t=1
        svc.close()
        assert report.retention.dropped == [0]
        assert not report.retention.swept
        assert not report.retention.statcache_invalidated

