"""Ablation F — deletion support: retention + garbage collection.

Sec. III-F notes that "supporting deletion of files requires an
additional process in the background."  This bench runs six weekly
backups (real bytes), applies a keep-last-2 retention policy, collects
garbage, and measures what the background process achieves: reclaimed
cloud bytes, surviving-container utilisation, and — crucially — that
every retained session still restores bit-exactly, and so does a
seventh session that backs up the first snapshot again after the sweep
(the client must not deduplicate against the extents it deleted).
"""

import pytest
from conftest import emit

from repro.cloud import InMemoryBackend
from repro.core import (
    BackupClient,
    RestoreClient,
    aa_dedupe_config,
    collect_garbage,
)
from repro.core import naming
from repro.core.gc import session_catalog
from repro.core.retention import RetainLastN
from repro.metrics import Table
from repro.util.units import KIB, MB, format_bytes
from repro.workloads import (
    WorkloadGenerator,
    materialize_snapshot,
    snapshot_to_memory_source,
)

SESSIONS = 6
KEEP = 2


def test_retention_gc_cycle(benchmark):
    def run():
        generator = WorkloadGenerator(total_bytes=10 * MB, seed=66,
                                      max_mean_file_size=MB)
        snapshots = list(generator.sessions(SESSIONS))
        cloud = InMemoryBackend()
        client = BackupClient(cloud,
                              aa_dedupe_config(container_size=64 * KIB))
        for snap in snapshots:
            client.backup(snapshot_to_memory_source(snap))
        before = cloud.stored_bytes()
        retain = RetainLastN(KEEP).select(session_catalog(cloud))
        report = collect_garbage(cloud, retain)
        after = cloud.stored_bytes()
        again = client.backup(snapshot_to_memory_source(snapshots[0]))
        return snapshots, cloud, before, after, report, retain, again

    snapshots, cloud, before, after, report, retain, again = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    live = len(cloud.list(naming.CONTAINER_PREFIX))
    utilisations = []
    for cid, live_bytes in report.container_live_bytes.items():
        utilisations.append(min(1.0, live_bytes / (64 * KIB)))
    table = Table(["metric", "value"],
                  title=f"Ablation F: keep-last-{KEEP} retention over "
                        f"{SESSIONS} weekly sessions")
    table.add_row(["cloud bytes before GC", format_bytes(before)])
    table.add_row(["cloud bytes after GC", format_bytes(after)])
    table.add_row(["reclaimed", format_bytes(before - after)])
    table.add_row(["manifests deleted", report.deleted_manifests])
    table.add_row(["containers deleted", report.deleted_containers])
    table.add_row(["containers live", live])
    table.add_row(["mean live-container utilisation",
                   f"{sum(utilisations) / len(utilisations):.2f}"])
    table.add_row(["session 0 re-backed-up after GC: uploaded",
                   format_bytes(again.bytes_uploaded)])
    emit(table.render())

    # GC reclaimed something and removed the right manifests.
    assert after < before
    assert report.deleted_manifests == SESSIONS - KEEP
    # Every retained session restores bit-exactly after the sweep.
    for sid in sorted(retain):
        restored, _ = RestoreClient(cloud).restore_to_memory(sid)
        assert restored == materialize_snapshot(snapshots[sid]), sid
    # A session after the sweep restores bit-exactly too.
    restored, _ = RestoreClient(cloud).restore_to_memory(again.session_id)
    assert restored == materialize_snapshot(snapshots[0])
    # Dropped sessions are really gone.
    with pytest.raises(Exception):
        RestoreClient(cloud).restore_to_memory(0)
