"""The service runner: execute declarative jobs against one backend.

:class:`BackupService` turns a validated
:class:`~repro.service.spec.ServiceSpec` into running state: every job
gets its own :class:`~repro.cloud.NamespacedBackend` view of the one
shared backend (private manifests/indexes/stat caches; shared
container and chunk pools), its own
:class:`~repro.core.backup.BackupClient` configured from the job's
scheme, and a disjoint container-id range by job rank — the fleet
layer's multi-tenancy machinery reused for heterogeneous *jobs* instead
of homogeneous *clients*.

Execution is deterministic: one shared
:class:`~repro.simulate.clock.VirtualClock` stamps manifests, schedules
evaluate exact interval arithmetic on it, and due jobs run
*sequentially* in ``(due_time, declaration rank)`` order — so a whole
multi-job service loop replays bit-identically.  The clock is attached
to each view (``view.clock``) purely so the engine stamps manifests
with virtual time; jobs themselves consume zero virtual seconds, which
keeps schedule arithmetic exact.

Every executed occurrence produces a :class:`JobReport` (state machine
``SCHEDULED → IN_PROGRESS → SUCCEEDED | FAILED``, hook outcomes,
retention outcome, engine stats, log lines); a run of the service
aggregates them into a :class:`ServiceReport` whose ``exit_code``
implements the CLI contract (0 = all jobs succeeded, 1 = at least one
failed — the report is still produced).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, List, Optional, Sequence

from repro.cloud import InMemoryBackend, NamespacedBackend
from repro.core import naming
from repro.core.backup import BackupClient
from repro.core.stats import SessionStats
from repro.errors import ConfigError, ReproError
from repro.metrics.report import Table
from repro.obs.tracer import NOOP_TRACER
from repro.service.hooks import run_hook
from repro.service.retention import RetentionOutcome, apply_retention
from repro.service.schedule import JobClock
from repro.service.spec import JobSpec, ServiceSpec
from repro.simulate.clock import VirtualClock
from repro.util.units import format_bytes

__all__ = ["JobReport", "ServiceReport", "BackupService",
           "SCHEDULED", "IN_PROGRESS", "SUCCEEDED", "FAILED"]

#: Job occurrence states (a tiny linear state machine).
SCHEDULED = "SCHEDULED"
IN_PROGRESS = "IN_PROGRESS"
SUCCEEDED = "SUCCEEDED"
FAILED = "FAILED"


@dataclass
class JobReport:
    """Everything one executed job occurrence produced."""

    job: str
    run_index: int
    scheduled_for: float
    state: str = SCHEDULED
    session_id: Optional[int] = None
    started_at: Optional[float] = None
    ended_at: Optional[float] = None
    stats: Optional[SessionStats] = None
    logs: List[dict] = field(default_factory=list)
    #: Labels + details of hooks that failed (warn *and* abort).
    hook_failures: List[str] = field(default_factory=list)
    retention: Optional[RetentionOutcome] = None
    error: Optional[str] = None

    def log(self, ts: float, level: str, message: str) -> None:
        self.logs.append({"ts": ts, "level": level, "message": message})

    @property
    def ok(self) -> bool:
        return self.state == SUCCEEDED

    def to_json(self) -> dict:
        doc = {
            "job": self.job,
            "run": self.run_index,
            "state": self.state,
            "scheduled_for": self.scheduled_for,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "session_id": self.session_id,
            "hook_failures": list(self.hook_failures),
            "error": self.error,
            "logs": list(self.logs),
        }
        if self.stats is not None:
            doc["stats"] = {
                "bytes_scanned": self.stats.bytes_scanned,
                "bytes_unique": self.stats.bytes_unique,
                "bytes_uploaded": self.stats.bytes_uploaded,
                "files_total": self.stats.files_total,
                "dedup_ratio": self.stats.dedup_ratio,
            }
        if self.retention is not None:
            doc["retention"] = {
                "policy": self.retention.policy,
                "retained": self.retention.retained,
                "dropped": self.retention.dropped,
                "deleted_containers": self.retention.deleted_containers,
                "deleted_objects": self.retention.deleted_objects,
                "statcache_invalidated":
                    self.retention.statcache_invalidated,
                "problems": self.retention.problems,
            }
        return doc


@dataclass
class ServiceReport:
    """All occurrences one service run executed, in execution order."""

    reports: List[JobReport] = field(default_factory=list)
    started_at: float = 0.0
    ended_at: float = 0.0

    @property
    def exit_code(self) -> int:
        """CLI contract: 0 = every job succeeded, 1 = any failed."""
        return 1 if any(not r.ok for r in self.reports) else 0

    @property
    def failed(self) -> List[JobReport]:
        return [r for r in self.reports if not r.ok]

    def to_json(self) -> dict:
        return {
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "exit_code": self.exit_code,
            "runs": [r.to_json() for r in self.reports],
        }

    def render(self) -> str:
        table = Table(
            ["job", "run", "t", "state", "session", "scanned",
             "uploaded", "retention", "notes"],
            title="service run")
        for r in self.reports:
            if r.retention is None:
                retention = "-"
            elif r.retention.dropped:
                retention = (f"dropped {len(r.retention.dropped)}, "
                             f"kept {len(r.retention.retained)}")
            else:
                retention = f"kept {len(r.retention.retained)}"
            notes = []
            if r.hook_failures:
                notes.append(f"{len(r.hook_failures)} hook failure(s)")
            if r.error:
                notes.append(r.error)
            table.add_row([
                r.job, r.run_index, r.scheduled_for, r.state,
                r.session_id if r.session_id is not None else "-",
                format_bytes(r.stats.bytes_scanned) if r.stats else "-",
                format_bytes(r.stats.bytes_uploaded) if r.stats else "-",
                retention,
                "; ".join(notes) if notes else "-",
            ])
        lines = [table.render()]
        failed = self.failed
        lines.append(
            f"{len(self.reports)} run(s), {len(failed)} failed"
            + (": " + ", ".join(sorted({r.job for r in failed}))
               if failed else ""))
        return "\n".join(lines)


class _JobRuntime:
    """One job's live state: view, engine, source stream, schedule."""

    def __init__(self, rank: int, spec: JobSpec, view, client,
                 source) -> None:
        self.rank = rank
        self.spec = spec
        self.view = view
        self.client = client
        self.source = source
        self.clock = JobClock(spec.schedule)
        self.run_index = 0


class BackupService:
    """Run a :class:`ServiceSpec`'s jobs over one shared backend.

    ``backend`` persists across instantiations (pass a durable store to
    get stateless re-invocation: each job's client resumes its index,
    stat cache and session counter from the cloud, and container-id
    allocation resumes inside the job's stride).  ``jobs`` restricts the
    service to a named subset (CLI ``--job``).
    """

    def __init__(self, spec: ServiceSpec, backend=None,
                 clock: Optional[VirtualClock] = None, tracer=None,
                 jobs: Optional[Sequence[str]] = None) -> None:
        self.spec = spec
        self.backend = backend if backend is not None else InMemoryBackend()
        self.clock = clock if clock is not None else VirtualClock()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._backend_lock = Lock()
        selected: List[JobSpec] = (
            [spec.job(name) for name in jobs] if jobs is not None
            else list(spec.jobs))
        if not selected:
            raise ConfigError("no jobs selected")
        next_ids = naming.next_container_ids(self.backend)
        self.jobs: List[_JobRuntime] = []
        for job in selected:
            # Rank comes from the *spec* order, not the selection order:
            # running ``--job b`` alone must use the same container
            # stride as running the full config, or re-invocations
            # would interleave id ranges across jobs.
            rank = spec.jobs.index(job)
            view = NamespacedBackend(self.backend, job.name,
                                     lock=self._backend_lock)
            # The engine stamps manifests from ``cloud.clock`` when
            # present — attach the service clock so session ages are
            # virtual-time and retention arithmetic is exact.
            view.clock = self.clock
            client = BackupClient(
                view, job.scheme_config(),
                first_container_id=next_ids.get(
                    rank, rank * naming.CONTAINER_ID_STRIDE),
                tracer=self.tracer)
            client.resume_from_cloud()
            self.jobs.append(
                _JobRuntime(rank, job, view, client, job.make_source()))
        self.reports: List[JobReport] = []

    # ------------------------------------------------------------------
    def _runtime(self, name: str) -> _JobRuntime:
        for runtime in self.jobs:
            if runtime.spec.name == name:
                return runtime
        names = ", ".join(r.spec.name for r in self.jobs)
        raise ConfigError(f"no job named {name!r}; active: {names}")

    def _hook_env(self, runtime: _JobRuntime,
                  report: JobReport) -> Dict[str, str]:
        return {
            "REPRO_JOB": runtime.spec.name,
            "REPRO_RUN": str(report.run_index),
            "REPRO_SCHEME": runtime.spec.scheme,
        }

    def _run_hooks(self, runtime: _JobRuntime, report: JobReport,
                   which: str) -> bool:
        """Run the job's pre or post hooks.  Returns False when a hook
        failed *and* the policy is abort."""
        hooks = runtime.spec.hooks
        specs = hooks.pre if which == "pre" else hooks.post
        env = self._hook_env(runtime, report)
        ok = True
        for spec in specs:
            with self.tracer.span("service.hook", job=runtime.spec.name,
                                  which=which, hook=spec.label):
                result = run_hook(spec, env)
            if result.ok:
                continue
            failure = f"{which}-hook {spec.label}: {result.detail}"
            report.hook_failures.append(failure)
            if hooks.failure_policy == "abort":
                ok = False
                report.log(self.clock.now(), "error", failure)
            else:
                report.log(self.clock.now(), "warning",
                           f"{failure} (policy: warn, continuing)")
        return ok

    # ------------------------------------------------------------------
    def _execute(self, runtime: _JobRuntime,
                 scheduled_for: float) -> JobReport:
        spec = runtime.spec
        report = JobReport(job=spec.name, run_index=runtime.run_index,
                           scheduled_for=scheduled_for)
        runtime.run_index += 1
        report.started_at = self.clock.now()
        report.state = IN_PROGRESS
        with self.tracer.span("service.job", job=spec.name,
                              run=report.run_index, scheme=spec.scheme):
            if not self._run_hooks(runtime, report, "pre"):
                # Abort policy: the engine is never invoked.
                report.state = FAILED
                report.error = report.hook_failures[-1]
            else:
                try:
                    source = runtime.source.next_source()
                    stats = runtime.client.backup(source)
                except ReproError as exc:
                    report.state = FAILED
                    report.error = f"{type(exc).__name__}: {exc}"
                    report.log(self.clock.now(), "error", report.error)
                else:
                    report.state = SUCCEEDED
                    report.stats = stats
                    report.session_id = stats.session_id
                    report.log(
                        self.clock.now(), "info",
                        f"session {stats.session_id}: "
                        f"{stats.files_total} files, "
                        f"{format_bytes(stats.bytes_uploaded)} uploaded")
                # Post hooks run after every engine attempt (cleanup
                # semantics); abort only demotes a *successful* run.
                if not self._run_hooks(runtime, report, "post") \
                        and report.state == SUCCEEDED:
                    report.state = FAILED
                    report.error = report.hook_failures[-1]
            if report.state == SUCCEEDED and spec.retention is not None:
                with self.tracer.span("service.retention",
                                      job=spec.name):
                    outcome = apply_retention(
                        self.backend, runtime.view, spec.retention,
                        now=self.clock.now(), tracer=self.tracer)
                report.retention = outcome
                if outcome is not None and outcome.dropped:
                    report.log(
                        self.clock.now(), "info",
                        f"retention dropped sessions "
                        f"{outcome.dropped}, swept "
                        f"{outcome.deleted_containers} containers / "
                        f"{outcome.deleted_objects} objects")
                    if self.tracer.enabled:
                        self.tracer.metrics.counter(
                            "retention_sessions_dropped").inc(
                            len(outcome.dropped))
        report.ended_at = self.clock.now()
        runtime.clock.note_run(scheduled_for, report.ok)
        if self.tracer.enabled:
            self.tracer.metrics.counter("jobs_run").inc()
            if not report.ok:
                self.tracer.metrics.counter("jobs_failed").inc()
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    def run_once(self, name: str) -> JobReport:
        """Run one job immediately (outside its schedule)."""
        return self._execute(self._runtime(name), self.clock.now())

    def run_all(self) -> List[JobReport]:
        """Run every active job once, in declaration order."""
        return [self._execute(runtime, self.clock.now())
                for runtime in self.jobs]

    def run_due(self) -> List[JobReport]:
        """Run every job whose schedule is due at the current time."""
        now = self.clock.now()
        return [self._execute(runtime, runtime.clock.next_due)
                for runtime in self.jobs if runtime.clock.due(now)]

    def run(self, until: Optional[float] = None) -> ServiceReport:
        """Drive the schedule loop up to virtual time ``until``.

        Advances the shared clock occurrence by occurrence, executing
        due jobs in ``(due_time, rank)`` order.  ``until`` defaults to
        the config's top-level ``until``; with neither, every job runs
        exactly once (one-shot mode).
        """
        horizon = until if until is not None else self.spec.until
        started = self.clock.now()
        if horizon is None:
            self.run_all()
        else:
            while True:
                pending = [(r.clock.next_due, r.rank, r)
                           for r in self.jobs
                           if r.clock.next_due is not None
                           and r.clock.next_due <= horizon]
                if not pending:
                    break
                due, _rank, runtime = min(pending,
                                          key=lambda p: (p[0], p[1]))
                if due > self.clock.now():
                    self.clock.advance(due - self.clock.now())
                self._execute(runtime, due)
        return ServiceReport(reports=list(self.reports),
                             started_at=started,
                             ended_at=self.clock.now())

    def report(self) -> ServiceReport:
        """All occurrences executed so far, as a report."""
        return ServiceReport(reports=list(self.reports),
                             started_at=0.0, ended_at=self.clock.now())

    def write_report(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.report().to_json(), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")

    def close(self) -> None:
        for runtime in self.jobs:
            runtime.client.close()
