"""Restore locality — one fetch per container, fresh store or aged.

Sec. III-F: the container manager "uses chunk locality to group chunks
likely to be retrieved together so that the data restoration performance
will be reasonably good."  A restore is planned from the recipe before
its first GET, so it loads each container its session references
exactly once.  This bench restores sessions of two stores and reports
container fetches against the distinct containers referenced:

* **fresh** — one session into 256 KiB containers;
* **aged** — several weekly sessions into 256 KiB containers, with
  keep-last retention and garbage collection between them, so a late
  session's extents are scattered over containers written weeks apart.

Set ``BENCH_SMOKE=1`` to run a down-scaled configuration (CI).
"""

import pytest
from conftest import SMOKE, emit

from repro.cloud import InMemoryBackend
from repro.core import (BackupClient, RestoreClient, aa_dedupe_config,
                        collect_garbage)
from repro.core.gc import session_catalog
from repro.core.retention import RetainLastN
from repro.metrics import Table
from repro.util.units import GB, KIB, MB
from repro.workloads import (WorkloadGenerator, materialize_snapshot,
                             snapshot_to_memory_source)

TOTAL = (10 if SMOKE else 14) * MB
SESSIONS = 6 if SMOKE else 16
#: Every ``GC_EVERY`` sessions, retention keeps the ``KEEP`` newest.
GC_EVERY = 3 if SMOKE else 4
KEEP = 2


def _store(sessions: int):
    """Back up ``sessions`` weekly snapshots; returns (cloud, retained
    snapshots by session id)."""
    generator = WorkloadGenerator(total_bytes=TOTAL, seed=33,
                                  max_mean_file_size=1 * MB)
    cloud = InMemoryBackend()
    client = BackupClient(cloud,
                          aa_dedupe_config(container_size=256 * KIB))
    snapshots = {}
    for sid, snapshot in enumerate(generator.sessions(sessions)):
        client.backup(snapshot_to_memory_source(snapshot))
        snapshots[sid] = snapshot
        if sid + 1 < sessions and (sid + 1) % GC_EVERY == 0:
            collect_garbage(cloud,
                            RetainLastN(KEEP).select(session_catalog(cloud)))
    client.close()
    return cloud, {sid: snapshots[sid] for sid in session_catalog(cloud)}


@pytest.fixture(scope="module")
def stores():
    return {"fresh": _store(1), "aged": _store(SESSIONS)}


def test_restore_fetches_each_container_once(benchmark, stores):
    def run():
        rows = []
        for name, (cloud, snapshots) in stores.items():
            for sid, snapshot in snapshots.items():
                client = RestoreClient(cloud)
                restored, report = client.restore_to_memory(sid)
                assert restored == materialize_snapshot(snapshot), sid
                distinct = len(client.load_manifest(sid)
                               .referenced_containers())
                rows.append((name, sid, distinct, report))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(["store", "session", "containers referenced",
                   "container fetches", "refetch ratio", "GETs / GB"],
                  title="Restore: container fetches against distinct "
                        "containers referenced (256 KiB containers)")
    for name, sid, distinct, report in rows:
        fetched = report.containers_fetched
        table.add_row([name, sid, distinct, fetched,
                       f"{fetched / distinct:.2f}",
                       f"{fetched * GB / report.bytes_restored:,.0f}"])
    emit(table.render())

    assert {name for name, *_ in rows} == {"fresh", "aged"}
    for name, sid, distinct, report in rows:
        assert report.containers_fetched == distinct, (name, sid)


def test_restore_throughput_real(benchmark, stores):
    """Wall-clock restore of the fresh session (pytest-benchmark rows)."""
    cloud, _snapshots = stores["fresh"]

    def restore():
        _files, report = RestoreClient(cloud).restore_to_memory(0)
        return report

    report = benchmark.pedantic(restore, rounds=3, iterations=1)
    assert report.files_restored > 50
