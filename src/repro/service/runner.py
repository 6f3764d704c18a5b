"""The service runner: execute declarative jobs against one backend.

:class:`BackupService` turns a validated
:class:`~repro.service.spec.ServiceSpec` into running state: every job
gets its own :class:`~repro.cloud.NamespacedBackend` view of the one
shared backend (private manifests; shared container and chunk pools),
its own :class:`~repro.core.backup.BackupClient` configured from the
job's scheme (its first session open reads the job's retained
manifests), and a disjoint container-id range by job rank.

Jobs due at one instant of the shared
:class:`~repro.simulate.clock.VirtualClock` form a **wave**: their
hooks and backups run on a thread pool, then the wave barrier flushes
the successful jobs' indexes, commits a shared directory's epoch and
applies retention in rank order (docs/SERVICE.md).  Reports are
appended in rank order and jobs consume zero virtual seconds, so a run
replays bit-identically for any ``max_workers``.

Every executed occurrence produces a :class:`JobReport` (state machine
``SCHEDULED → IN_PROGRESS → SUCCEEDED | FAILED``, hook outcomes,
retention outcome, engine stats, log lines); a run of the service
aggregates them into a :class:`ServiceReport` whose ``exit_code``
implements the CLI contract (0 = all jobs succeeded, 1 = at least one
failed — the report is still produced).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from threading import Lock
from typing import List, Optional, Sequence

from repro.cloud import (InMemoryBackend, NamespacedBackend, SimulatedCloud,
                         WANLink)
from repro.cloud.wan import PAPER_WAN
from repro.core import naming
from repro.core.backup import BackupClient
from repro.core.retention import RetentionOutcome, apply_retention
from repro.core.stats import SessionStats
from repro.errors import ConfigError, ReproError
from repro.fleet.client import FleetIndex
from repro.metrics.report import Table
from repro.obs.tracer import NOOP_TRACER
from repro.service.hooks import run_hook
from repro.service.schedule import JobClock
from repro.service.spec import JobSpec, ServiceSpec
from repro.simulate.clock import VirtualClock
from repro.util.units import format_bytes

__all__ = ["JobReport", "ServiceReport", "BackupService",
           "SCHEDULED", "IN_PROGRESS", "SUCCEEDED", "FAILED"]

#: Relative width of the per-job uplink distribution of a fleet.
WAN_SPREAD = 0.5

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


def _wan_for(rank: int, base: WANLink) -> WANLink:
    """A deterministic per-job WAN link around ``base``: ranks hash to
    a factor in ``[1 - WAN_SPREAD/2, 1 + WAN_SPREAD/2]``, since a fleet
    of consumer uplinks is never uniform."""
    factor = (1.0 - WAN_SPREAD / 2
              + WAN_SPREAD * (((rank * 2654435761) % 97) / 96))
    return WANLink(up_bandwidth=base.up_bandwidth * factor,
                   down_bandwidth=base.down_bandwidth * factor,
                   request_latency=base.request_latency,
                   concurrent_requests=base.concurrent_requests)


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
    get stateless re-invocation: each job's client rebuilds its index,
    stat cache and session counter from the cloud at its first session
    open, and container-id allocation resumes inside the job's
    stride).  Building the service reads no manifest, so a job whose
    store cannot be read fails its own run, not the service.  ``jobs`` restricts the
    service to a named subset (CLI ``--job``).  ``directory`` makes the
    jobs a fleet: it backs every job's subindices with
    :class:`~repro.fleet.client.FleetIndex` fronts on that shared
    directory and puts each job behind its own simulated uplink (the
    rank-spread :func:`_wan_for` of ``PAPER_WAN``) and clock.  A fleet
    admits no job with retention (see docs/FLEET.md).
    """

    def __init__(self, spec: ServiceSpec, backend=None,
                 clock: Optional[VirtualClock] = None, tracer=None,
                 jobs: Optional[Sequence[str]] = None,
                 directory=None) -> None:
        self.spec = spec
        self.backend = backend if backend is not None else InMemoryBackend()
        self.clock = clock if clock is not None else VirtualClock()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.directory = directory
        self._backend_lock = Lock()
        selected: List[JobSpec] = (
            [spec.job(name) for name in jobs] if jobs is not None
            else list(spec.jobs))
        if not selected:
            raise ConfigError("no jobs selected")
        # The directory never prunes entries for swept containers, and
        # per-job WAN clocks stamp manifests that retention would age
        # against the service clock.
        for job in selected if directory is not None else ():
            if job.retention is not None:
                raise ConfigError(f"job {job.name!r}: retention is not "
                                  f"supported with a shared directory")
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
            if directory is None:
                # The engine stamps manifests from ``cloud.clock`` when
                # present — attach the service clock so session ages
                # are virtual-time and retention arithmetic is exact.
                view.clock = self.clock
                cloud, factory = view, None
            else:
                cloud = SimulatedCloud(view, wan=_wan_for(rank, PAPER_WAN),
                                       clock=VirtualClock(),
                                       tracer=self.tracer)
                factory = (lambda app, _rank=rank:
                           FleetIndex(directory, app, _rank))
            client = BackupClient(
                cloud, job.scheme_config(), index_factory=factory,
                first_container_id=next_ids.get(
                    rank, rank * naming.CONTAINER_ID_STRIDE),
                tracer=self.tracer)
            self.jobs.append(
                _JobRuntime(rank, job, view, client, job.make_source()))
        self.jobs.sort(key=lambda runtime: runtime.rank)
        self.reports: List[JobReport] = []

    # ------------------------------------------------------------------
    def _run_hooks(self, runtime: _JobRuntime, report: JobReport,
                   which: str) -> bool:
        """Run the job's pre or post hooks.  Returns False when a hook
        failed *and* the policy is abort."""
        hooks = runtime.spec.hooks
        specs = hooks.pre if which == "pre" else hooks.post
        env = {"REPRO_JOB": runtime.spec.name,
               "REPRO_RUN": str(report.run_index),
               "REPRO_SCHEME": runtime.spec.scheme}
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
        """One job's hooks and backup (a wave member, on the pool)."""
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
        report.ended_at = self.clock.now()
        runtime.clock.note_run(scheduled_for, report.ok)
        if self.tracer.enabled:
            self.tracer.metrics.counter("jobs_run").inc()
            if not report.ok:
                self.tracer.metrics.counter("jobs_failed").inc()
        return report

    def _retain(self, runtime: _JobRuntime, report: JobReport) -> None:
        """Apply a successful job's retention policy (at the barrier)."""
        spec = runtime.spec
        if not report.ok or spec.retention is None:
            return
        with self.tracer.span("service.retention", job=spec.name):
            outcome = apply_retention(
                self.backend, runtime.view, spec.retention,
                now=self.clock.now())
        report.retention = outcome
        if outcome is not None and outcome.dropped:
            report.log(
                self.clock.now(), "info",
                f"retention dropped sessions {outcome.dropped}, swept "
                f"{outcome.deleted_containers} containers / "
                f"{outcome.deleted_objects} objects")
            if self.tracer.enabled:
                self.tracer.metrics.counter(
                    "retention_sessions_dropped").inc(len(outcome.dropped))

    def _wave(self, runtimes: Sequence[_JobRuntime], due: float,
              pool: Optional[ThreadPoolExecutor] = None
              ) -> List[JobReport]:
        """Run the jobs due at ``due`` (on ``pool`` when given), then the
        barrier: successful jobs flush their index, the directory
        commits its epoch, retention runs in rank order.  A member that
        raises (a bug, not a failed job) costs the others neither their
        barrier nor their reports: its error is re-raised after them."""
        def attempt(runtime):
            try:
                return self._execute(runtime, due)
            except Exception as exc:  # re-raised after the barrier
                return exc

        outcomes = list((pool.map if pool is not None else map)(
            attempt, runtimes))
        done = [(runtime, outcome)
                for runtime, outcome in zip(runtimes, outcomes)
                if isinstance(outcome, JobReport)]
        for runtime, report in done:
            if report.ok:
                runtime.client.index.flush()
        if self.directory is not None:
            self.directory.commit_epoch()
        for runtime, report in done:
            self._retain(runtime, report)
        self.reports.extend(report for _, report in done)
        for outcome in outcomes:
            if not isinstance(outcome, JobReport):
                raise outcome
        return outcomes

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_workers: int = 1) -> ServiceReport:
        """Drive the schedule loop up to virtual time ``until``.

        Advances the shared clock to each pending occurrence and runs
        the jobs due there as one wave: inline at ``max_workers=1``,
        else on a pool of ``max_workers`` threads that lives for the
        whole run.  ``until`` defaults to the config's top-level
        ``until``; with neither, every job runs exactly once (one-shot
        mode, one wave).
        """
        horizon = until if until is not None else self.spec.until
        started = self.clock.now()
        with (ThreadPoolExecutor(max_workers=max_workers,
                                 thread_name_prefix="service")
              if max_workers > 1 else nullcontext()) as pool:
            if horizon is None:
                self._wave(self.jobs, started, pool)
            else:
                while True:
                    due = min((r.clock.next_due for r in self.jobs
                               if r.clock.due(horizon)), default=None)
                    if due is None:
                        break
                    self.clock.advance(max(0.0, due - self.clock.now()))
                    self._wave([r for r in self.jobs
                                if r.clock.next_due == due], due, pool)
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
        if self.directory is not None:
            self.directory.close()
