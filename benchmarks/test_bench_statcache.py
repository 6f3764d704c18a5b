"""Stat-cache bench — cross-session recipe replay on unchanged files.

Drives the AA-Dedupe engine over an unchanged-majority PC workload (the
paper's application mix minus VM images, whose 90 %-weekly block
rewrites are not the population this cache targets) twice: with the
stat cache and with ``stat_cache=False``.  Reports per-session read and
hash volume plus replay counts, then asserts the claims the cache must
honour:

* warm sessions read and hash at most 20 % of the bytes the cache-off
  arm reads (the unchanged majority is replayed from cached recipes);
* the cache changes client CPU work only — both arms restore every
  session bit-identically;
* the cached store passes a full scrub (zero findings) afterwards.

Set ``BENCH_SMOKE=1`` to run a down-scaled configuration (CI).
"""

from __future__ import annotations


from conftest import SMOKE, emit

from repro.cloud.memory import InMemoryBackend
from repro.core.backup import BackupClient
from repro.core.options import aa_dedupe_config
from repro.core.restore import RestoreClient
from repro.core.scrub import scrub_cloud
from repro.metrics import Table
from repro.util.units import MB, format_bytes
from repro.workloads import (
    WorkloadGenerator,
    materialize_snapshot,
    snapshot_to_memory_source,
)
from repro.workloads.profiles import PAPER_PROFILES

TOTAL_BYTES = (16 if SMOKE else 64) * MB
SESSIONS = 2 if SMOKE else 3
SEED = 2011


def _snapshots():
    profiles = [p for p in PAPER_PROFILES if p.label != "vmdk"]
    gen = WorkloadGenerator(total_bytes=TOTAL_BYTES, seed=SEED,
                            max_mean_file_size=2 * MB, profiles=profiles)
    return list(gen.sessions(SESSIONS))


def _run(snapshots, stat_cache: bool):
    config = aa_dedupe_config(stat_cache=stat_cache)
    cloud = InMemoryBackend()
    client = BackupClient(cloud, config)
    stats = [client.backup(snapshot_to_memory_source(s))
             for s in snapshots]
    client.close()
    return cloud, stats


def test_statcache_skips_rechunking_unchanged_files():
    snapshots = _snapshots()
    off_cloud, off_stats = _run(snapshots, stat_cache=False)
    on_cloud, on_stats = _run(snapshots, stat_cache=True)

    table = Table(["session", "read (off)", "read (cache)",
                   "hashed (cache)", "replayed", "stale", "DR cache"])
    for off, on in zip(off_stats, on_stats):
        table.add_row([
            on.session_id,
            format_bytes(off.ops.read_bytes),
            format_bytes(on.ops.read_bytes),
            format_bytes(sum(on.ops.hashed_bytes.values())),
            f"{on.files_unchanged}/{on.files_total}",
            on.statcache_stale,
            f"{on.dedup_ratio:.2f}",
        ])
    emit(table.render())

    # Cold sessions are identical work in both arms.
    assert on_stats[0].ops.read_bytes == off_stats[0].ops.read_bytes
    assert on_stats[0].files_unchanged == 0

    # The headline claim: warm sessions read and hash at most 20 % of
    # what the cache-off arm does on the same snapshot.
    for off, on in zip(off_stats[1:], on_stats[1:]):
        assert on.files_unchanged > 0.5 * on.files_total
        assert on.ops.read_bytes <= 0.2 * off.ops.read_bytes
        assert (sum(on.ops.hashed_bytes.values())
                <= 0.2 * sum(off.ops.hashed_bytes.values()))
        # The replay still feeds dedup accounting the full dataset.
        assert on.bytes_scanned == off.bytes_scanned

    # The cache changes CPU work, not backup content: every session of
    # the cached arm restores bit-identically.
    restorer = RestoreClient(on_cloud)
    for sid, snap in enumerate(snapshots):
        out, report = restorer.restore_to_memory(sid)
        assert out == materialize_snapshot(snap), \
            f"session {sid} not bit-identical"
        assert not report.corrupt

    # ...and the replayed store passes a full scrub with zero findings.
    report = scrub_cloud(on_cloud)
    assert report.clean, report.problems
