"""Fleet bench — cross-client dedup and directory load at fleet scale.

Drives a fleet of concurrent AA-Dedupe clients (8 by default; 4 in
smoke mode, see ``BENCH_SMOKE``) against **one shared backend**
as the jobs of one :class:`repro.service.BackupService` sharing a
global dedup directory (:func:`repro.fleet.fleet_spec`) and reports:

* **aggregate goodput** — fleet logical bytes protected per second of
  makespan (the slowest client's modelled WAN time);
* **cross-client versus intra-client dedup** — how much of the fleet's
  savings came from the server-side global directory rather than each
  client's own history;
* **shard hit distribution** — per-``(app, fingerprint-prefix)`` probe
  load on the directory, including the batch amortisation and, for a
  disk-backed directory, the priced server seek time.

Determinism is asserted the hard way: the whole fleet run is executed
twice (different thread-pool sizes) and every simulation output must
match bit-for-bit.

Set ``BENCH_SMOKE=1`` to run a down-scaled configuration (CI).
"""

from __future__ import annotations

from dataclasses import asdict

from conftest import SMOKE, emit

from repro.fleet import (FleetReport, GlobalDedupDirectory, fleet_spec,
                         synthetic_fleet_sources)
from repro.index.disk import DiskIndex
from repro.metrics import Table
from repro.obs import Tracer
from repro.service import BackupService
from repro.util.units import format_bytes

CLIENTS = 4 if SMOKE else 8
SESSIONS = 2 if SMOKE else 3
FILE_KIB = 12 if SMOKE else 16
SEED = 2011

_WALL_FIELDS = {"dedup_wall_seconds"}


def _sources():
    return synthetic_fleet_sources(CLIENTS, SESSIONS, seed=SEED,
                                   file_kib=FILE_KIB)


def _run(max_workers: int, tracer=None, directory=None):
    if directory is None:
        directory = GlobalDedupDirectory(tracer=tracer)
    service = BackupService(fleet_spec(_sources()), directory=directory,
                            tracer=tracer)
    try:
        service.run(max_workers=max_workers)
        return FleetReport.of(service)
    finally:
        service.close()


def _simulation_key(report):
    return [
        ([{k: v for k, v in asdict(s).items() if k not in _WALL_FIELDS}
          for s in c["sessions"]],
         c["transfer_seconds"], c["bill"], c["cross_bytes"])
        for c in report.clients
    ] + [report.shard_rows]


def test_fleet_scale_dedup(benchmark):
    tracer = Tracer()

    def run():
        return _run(max_workers=CLIENTS, tracer=tracer)

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    emit(report.render())

    # A real fleet ran: N concurrent clients, one shared backend.
    assert len(report.clients) == CLIENTS >= (4 if SMOKE else 8)
    assert all(len(c["sessions"]) == SESSIONS for c in report.clients)

    # Cross-client dedup exists and is attributed separately from
    # intra-client savings.
    assert report.cross_bytes > 0
    assert report.intra_bytes > 0
    assert 0 < report.cross_client_fraction < 1
    assert report.dedup_ratio > 1
    assert report.aggregate_goodput > 0

    # Directory accounting adds up: every committed entry came through
    # a shard, and batched probing never exceeds per-fingerprint cost.
    assert sum(r["accepted"] for r in report.shard_rows) == \
        report.directory_entries
    assert all(r["batches"] <= r["probes"] for r in report.shard_rows)

    # The run is wired through the observability stack: one job span
    # per client session, one epoch commit per wave.
    spans = tracer.spans()
    assert sum(s.name == "service.job" for s in spans) == \
        CLIENTS * SESSIONS
    assert sum(s.name == "fleet.commit_epoch" for s in spans) == \
        report.epochs
    counters = tracer.metrics.snapshot()["counters"]
    assert counters.get("fleet_directory_committed_total", 0) == \
        report.directory_entries


def test_fleet_determinism_for_fixed_seed(benchmark):
    def run():
        return _simulation_key(_run(max_workers=1)), \
            _simulation_key(_run(max_workers=CLIENTS))

    serial, threaded = benchmark.pedantic(run, rounds=1, iterations=1)
    assert serial == threaded


def test_fleet_directory_disk_backing(benchmark, tmp_path):
    """Disk-backed shards: the shard stats price server-side seeks."""

    # Tight memtable + small cache front: shards spill to runs and probes
    # actually reach the disk, so the seek pricing has something to see.
    def factory(app, bucket):
        return DiskIndex(tmp_path / f"{app}-{bucket}", memtable_limit=2)

    def _run_disk():
        return _run(max_workers=CLIENTS, directory=GlobalDedupDirectory(
            shards_per_app=2, index_factory=factory, cache_capacity=2))

    report = benchmark.pedantic(_run_disk, rounds=1, iterations=1)

    table = Table(["backing", "disk probes", "memory hits",
                   "server seek s"],
                  title="Fleet directory: disk-backed shard cost")
    total_disk = sum(r["disk_probes"] for r in report.shard_rows)
    total_mem = sum(r["memory_hits"] for r in report.shard_rows)
    table.add_row(["disk + cache front", total_disk, total_mem,
                   report.server_seek_seconds()])
    emit(table.render())

    # Same dedup outcome as memory shards; only the priced cost moves.
    memory_report = _run(max_workers=CLIENTS)
    assert report.cross_bytes == memory_report.cross_bytes
    assert report.directory_entries == memory_report.directory_entries
    assert total_disk > 0
    assert report.server_seek_seconds() > 0
    emit(f"fleet stored {format_bytes(report.bytes_unique)} unique of "
         f"{format_bytes(report.bytes_scanned)} scanned")
