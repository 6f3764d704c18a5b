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

The memory rows restore a session from a store on disk into a
directory in a child process and report its peak RSS: the destination
is the assembly area, so the peak must not grow with the session.

Set ``BENCH_SMOKE=1`` to run a down-scaled configuration (CI).
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import SMOKE, emit

import repro
from repro.cloud import InMemoryBackend, LocalDirectoryBackend
from repro.core import (BackupClient, MemorySource, RestoreClient,
                        aa_dedupe_config, collect_garbage)
from repro.core.gc import session_catalog
from repro.core.retention import RetainLastN
from repro.metrics import Table
from repro.util.units import GB, KIB, MB, MIB
from repro.workloads import (WorkloadGenerator, materialize_snapshot,
                             snapshot_to_memory_source)

TOTAL = (10 if SMOKE else 14) * MB
SESSIONS = 6 if SMOKE else 16
#: Every ``GC_EVERY`` sessions, retention keeps the ``KEEP`` newest.
GC_EVERY = 3 if SMOKE else 4
KEEP = 2
#: Session sizes of the restore memory rows, smaller first.
MEMORY_SESSIONS = (8 * MIB, 32 * MIB) if SMOKE else (32 * MIB, 128 * MIB)
#: Peak-RSS growth the larger memory row may show beyond one container.
MEMORY_SLACK = 16 * MIB

#: Restores session 0 of the store ``argv[1]`` into ``argv[2]``, then
#: prints its peak RSS after the imports and after the restore, in KiB.
#: ``VmHWM`` is this process's own high-water mark: ``ru_maxrss`` would
#: carry over the parent's from before the ``exec``.
_RESTORE_CHILD = """
import sys
from repro.cloud import LocalDirectoryBackend
from repro.core import RestoreClient
def peak():
    with open("/proc/self/status") as status:
        return next(line.split()[1] for line in status
                    if line.startswith("VmHWM:"))
before = peak()
RestoreClient(LocalDirectoryBackend(sys.argv[1])).restore_to_directory(
    0, sys.argv[2])
print(before, peak())
"""


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


def _restore_peak_rss(root: Path, size: int) -> tuple:
    """Back up ``size`` bytes of 1 MiB files into a store under
    ``root``, restore it in a child process and check the tree; returns
    (RSS after imports, peak RSS) in bytes."""
    rng = random.Random(size)
    exts = ("vmdk", "doc", "exe", "mp3")
    files = {f"f{i}.{exts[i % len(exts)]}": rng.randbytes(MIB)
             for i in range(size // MIB)}
    client = BackupClient(LocalDirectoryBackend(root / "store"),
                          aa_dedupe_config())
    client.backup(MemorySource(files))
    client.close()
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _RESTORE_CHILD, str(root / "store"),
         str(root / "out")], check=True, capture_output=True, text=True,
        env=env).stdout
    for path, data in files.items():
        assert (root / "out" / path).read_bytes() == data, path
    before, peak = (int(kib) * KIB for kib in out.split())
    return before, peak


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc (Linux)")
def test_restore_memory_does_not_grow_with_the_session(tmp_path):
    rows = []
    for size in MEMORY_SESSIONS:
        (tmp_path / str(size)).mkdir()
        rows.append((size, *_restore_peak_rss(tmp_path / str(size), size)))
    table = Table(["session", "RSS after imports", "restore peak RSS",
                   "peak − imports"],
                  title="Restore to a directory: peak RSS of a child "
                        "process (1 MiB containers)")
    for size, before, peak in rows:
        table.add_row([f"{size // MIB} MiB", f"{before / MIB:.1f} MiB",
                       f"{peak / MIB:.1f} MiB",
                       f"{(peak - before) / MIB:.1f} MiB"])
    emit(table.render())
    small_peak, large_peak = (peak for _size, _before, peak in rows)
    container = aa_dedupe_config().container_size
    assert large_peak - small_peak < container + MEMORY_SLACK
