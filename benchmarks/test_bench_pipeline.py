"""Pipelined-engine bench — stage overlap on a Table-1-style workload.

Backs up one session of the paper's PC application mix with the staged
engine (read → chunk → hash → serial commit → pack → upload) against a
WAN-throttled backend, twice: serial uploads and pipelined uploads.
The wall-clock tracer's stage-occupancy intervals then prove the
tentpole claim — dedup CPU stages and WAN transfer run *concurrently*:

* the hash/chunk/read interval union overlaps the transfer intervals
  for most of the smaller side (stages busy at the same instants);
* the first upload starts before the last hash finishes;
* pipelining shrinks the session's wall clock vs the serial arm;
* the pipelined store still restores every file bit-identically.

Set ``BENCH_SMOKE=1`` to run a down-scaled configuration (CI).
"""

from __future__ import annotations

import time

from conftest import SMOKE, emit

from repro.cloud.memory import InMemoryBackend
from repro.core.backup import BackupClient
from repro.core.options import aa_dedupe_config
from repro.core.restore import RestoreClient
from repro.metrics import Table
from repro.obs import Tracer
from repro.obs.profile import (overlap_seconds, render_profile,
                               stage_breakdown)
from repro.util.units import KIB, MB, format_bytes
from repro.workloads import (
    WorkloadGenerator,
    materialize_snapshot,
    snapshot_to_memory_source,
)

TOTAL_BYTES = (12 if SMOKE else 32) * MB
SEED = 2011
#: Throttle so one session's unique bytes upload in roughly a second —
#: the same order as the dedup CPU time, where overlap matters most.
UPLOAD_SECONDS = 0.8 if SMOKE else 2.0


class ThrottledBackend(InMemoryBackend):
    """In-memory store with a modelled WAN: puts sleep at a fixed rate."""

    def __init__(self, bytes_per_second: float) -> None:
        super().__init__()
        self.bytes_per_second = bytes_per_second

    def _put(self, key: str, data: bytes) -> None:
        time.sleep(len(data) / self.bytes_per_second)
        super()._put(key, data)


def _snapshot():
    gen = WorkloadGenerator(total_bytes=TOTAL_BYTES, seed=SEED,
                            max_mean_file_size=1 * MB)
    return gen.initial_snapshot()


def _run(snapshot, pipeline: bool):
    cloud = ThrottledBackend(TOTAL_BYTES / UPLOAD_SECONDS)
    tracer = Tracer()  # wall clock: occupancy needs real timestamps
    config = aa_dedupe_config(container_size=256 * KIB,
                              parallel_workers=4,
                              pipeline_uploads=pipeline)
    client = BackupClient(cloud, config, tracer=tracer)
    start = time.perf_counter()
    stats = client.backup(snapshot_to_memory_source(snapshot))
    client.close()
    wall = time.perf_counter() - start
    return cloud, tracer, stats, wall


def test_pipeline_overlaps_hash_and_upload():
    snapshot = _snapshot()
    _, _, _, serial_wall = _run(snapshot, pipeline=False)
    cloud, tracer, stats, wall = _run(snapshot, pipeline=True)

    profile = stage_breakdown(tracer.spans())
    transfer = profile.stage_intervals.get("transfer", [])
    dedup_intervals = sorted(
        ivl for stage in ("read", "chunk", "hash")
        for ivl in profile.stage_intervals.get(stage, []))
    hash_intervals = profile.stage_intervals.get("hash", [])
    assert transfer, "no upload spans recorded"
    assert hash_intervals, "no hash spans recorded"

    overlap = overlap_seconds(dedup_intervals, transfer)
    transfer_busy = sum(end - start for start, end in transfer)
    dedup_busy = sum(end - start for start, end in dedup_intervals)

    table = Table(["metric", "value"])
    table.add_row(["bytes scanned", format_bytes(stats.bytes_scanned)])
    table.add_row(["serial wall", f"{serial_wall:.3f} s"])
    table.add_row(["pipelined wall", f"{wall:.3f} s"])
    table.add_row(["dedup-stage busy", f"{dedup_busy:.3f} s"])
    table.add_row(["transfer busy", f"{transfer_busy:.3f} s"])
    table.add_row(["dedup∩transfer", f"{overlap:.3f} s"])
    emit(table.render())
    emit(render_profile(tracer.spans()))

    # Uploads must begin while dedup is still hashing...
    first_upload = min(start for start, _end in transfer)
    last_hash = max(end for _start, end in hash_intervals)
    assert first_upload < last_hash, \
        "pipelined uploads only started after hashing finished"
    # ...and the two sides must be busy at the same instants for most
    # of the smaller side (near-full overlap, not a token handoff).
    assert overlap > 0.3 * min(dedup_busy, transfer_busy), (
        f"dedup/transfer overlap {overlap:.3f}s too small "
        f"(dedup {dedup_busy:.3f}s, transfer {transfer_busy:.3f}s)")
    # Overlap is wall-clock savings: the pipelined arm must beat the
    # serial arm on the same throttled WAN.
    assert wall < serial_wall, (
        f"pipelined wall {wall:.3f}s not below serial {serial_wall:.3f}s")

    # The per-stage busy ledger survives into session stats.
    assert stats.stage_busy_seconds.get("upload", 0.0) > 0.0
    for stage in ("read", "chunk", "hash", "commit"):
        assert stage in stats.stage_busy_seconds

    # Concurrency must never cost correctness: bit-exact restore.
    restored, _ = RestoreClient(cloud).restore_to_memory(0)
    assert restored == materialize_snapshot(snapshot)
