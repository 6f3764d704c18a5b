"""Service-layer bench: a multi-job declarative backup service end to end.

Drives ``repro.service`` the way an operator would: three heterogeneous
jobs (different schemes, chunkers and schedules) over one shared
backend for a simulated week, with both retention policy types running
real garbage collection along the way.  Reports per-job run counts,
dedup, retention churn and reclaimed bytes — and asserts the properties
the layer promises: bit-determinism across fresh invocations, every
retained session restoring bit-exactly, and cross-job liveness (one
job's retention never breaking another job's restores).

Set ``BENCH_SMOKE=1`` to shrink the horizon/corpora for CI.
"""


from conftest import SMOKE, emit

from repro.cloud import InMemoryBackend, NamespacedBackend
from repro.core import RestoreClient
from repro.core.gc import session_catalog
from repro.core.retention import RetainLastN, RetainMaxAge
from repro.metrics import Table
from repro.service import (
    BackupService,
    IntervalSchedule,
    JobSpec,
    SyntheticJobSource,
)
from repro.service.spec import ServiceSpec
from repro.util.units import format_bytes

DAY = 86400.0
HORIZON = (2 if SMOKE else 7) * DAY
FILES = 3 if SMOKE else 6
FILE_KIB = 16 if SMOKE else 48


def _spec() -> ServiceSpec:
    return ServiceSpec(jobs=(
        JobSpec(name="documents",
                source=SyntheticJobSource("documents", files=FILES,
                                          file_kib=FILE_KIB,
                                          churn=0.25),
                schedule=IntervalSchedule(DAY / 4),
                retention=RetainLastN(3)),
        JobSpec(name="media", scheme="Avamar", chunker="seqcdc",
                source=SyntheticJobSource("media", files=FILES,
                                          file_kib=FILE_KIB,
                                          churn=0.1),
                schedule=IntervalSchedule(DAY, offset=3600),
                retention=RetainMaxAge(3 * DAY)),
        JobSpec(name="vm-images", chunker="seqcdc",
                source=SyntheticJobSource("vm-images",
                                          files=max(2, FILES // 2),
                                          file_kib=FILE_KIB * 2,
                                          churn=0.1),
                schedule=IntervalSchedule(DAY / 2, offset=7200),
                retention=RetainLastN(4)),
    ))


def _run_service(backend):
    service = BackupService(_spec(), backend=backend)
    try:
        return service.run(until=HORIZON)
    finally:
        service.close()


def test_service_week(benchmark):
    def run():
        backend = InMemoryBackend()
        report = _run_service(backend)
        return backend, report

    backend, report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.exit_code == 0

    # -- determinism: a fresh invocation reproduces every stored byte --
    backend2 = InMemoryBackend()
    report2 = _run_service(backend2)
    snap1 = {k: backend.get(k) for k in backend.list("")}
    snap2 = {k: backend2.get(k) for k in backend2.list("")}
    assert snap1 == snap2
    assert [r.to_json() for r in report.reports] == \
        [r.to_json() for r in report2.reports]

    # -- every retained session of every job restores bit-exactly ----
    restored_sessions = 0
    restored_bytes = 0
    for job in _spec().jobs:
        view = NamespacedBackend(backend, job.name)
        for sid in sorted(session_catalog(view)):
            files, rep = RestoreClient(view).restore_to_memory(sid)
            assert files
            restored_sessions += 1
            restored_bytes += rep.bytes_restored

    # -- rollup table -------------------------------------------------
    by_job = {}
    for r in report.reports:
        by_job.setdefault(r.job, []).append(r)
    table = Table(
        ["job", "runs", "scanned", "uploaded", "DR", "dropped",
         "swept objects"],
        title=f"service week ({HORIZON / DAY:.0f} virtual days, "
              f"shared backend)")
    total_dropped = 0
    for name, runs in by_job.items():
        scanned = sum(r.stats.bytes_scanned for r in runs if r.stats)
        unique = sum(r.stats.bytes_unique for r in runs if r.stats)
        uploaded = sum(r.stats.bytes_uploaded for r in runs if r.stats)
        dropped = sum(len(r.retention.dropped) for r in runs
                      if r.retention)
        swept = sum(r.retention.deleted_containers
                    + r.retention.deleted_objects for r in runs
                    if r.retention)
        total_dropped += dropped
        table.add_row([name, len(runs), format_bytes(scanned),
                       format_bytes(uploaded),
                       scanned / unique if unique else float("inf"),
                       dropped, swept])
    lines = [table.render(),
             f"restored {restored_sessions} retained sessions "
             f"({format_bytes(restored_bytes)}) bit-exactly; "
             f"store holds {format_bytes(backend.stored_bytes())} in "
             f"{backend.object_count()} objects"]
    emit("\n".join(lines))

    # Both retention policy types actually dropped sessions.
    assert total_dropped > 0
    dropped_by = {name: sum(len(r.retention.dropped) for r in runs
                            if r.retention)
                  for name, runs in by_job.items()}
    assert dropped_by["documents"] > 0          # RetainLastN
    if not SMOKE:
        assert dropped_by["media"] > 0          # RetainMaxAge
    # Retention left exactly what the policies promise.
    docs_view = NamespacedBackend(backend, "documents")
    assert len(session_catalog(docs_view)) == 3
