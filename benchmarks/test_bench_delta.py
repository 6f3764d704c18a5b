"""Delta bench — similarity + delta compression on versioned documents.

Drives the AA-Dedupe engine over a versioned-document workload (a set
of office files, each lightly edited between sessions — the churn
pattern the delta stage targets) twice: exact-only and with
``delta_compress=True``.  Reports per-session upload volume, dedup
ratio and the delta stage's own accounting, then asserts the paper-
style claims the stage must honour:

* delta uploads strictly fewer bytes than exact-only on this workload;
* every delta-enabled session restores bit-identically;
* the store passes a full scrub (zero findings) afterwards.

Set ``BENCH_SMOKE=1`` to run a down-scaled configuration (CI).
"""

from __future__ import annotations


import numpy as np
from conftest import SMOKE, emit

from repro.cloud.memory import InMemoryBackend
from repro.core.backup import BackupClient
from repro.core.options import aa_dedupe_config
from repro.core.restore import RestoreClient
from repro.core.scrub import scrub_cloud
from repro.core.source import MemorySource
from repro.metrics import Table
from repro.util.units import format_bytes

DOCS = 4 if SMOKE else 12
SESSIONS = 3 if SMOKE else 5
DOC_KIB = 32 if SMOKE else 96
SEED = 2011

_EXTS = ("doc", "txt", "ppt", "xls", "html", "pdf")


def _edit(data: bytes, r: np.random.Generator) -> bytes:
    """Small in-place edits plus one insertion (document churn)."""
    arr = bytearray(data)
    for _ in range(int(r.integers(2, 7))):
        pos = int(r.integers(0, max(1, len(arr) - 40)))
        arr[pos:pos + 24] = r.integers(0, 256, 24,
                                       dtype=np.uint8).tobytes()
    pos = int(r.integers(0, len(arr) + 1))
    patch = r.integers(0, 256, int(r.integers(16, 80)),
                       dtype=np.uint8).tobytes()
    return bytes(arr[:pos]) + patch + bytes(arr[pos:])


def _versioned_sessions():
    """`SESSIONS` snapshots of `DOCS` documents under light editing."""
    r = np.random.default_rng(SEED)
    files = {
        f"work/doc{i:02d}.{_EXTS[i % len(_EXTS)]}":
            r.integers(0, 256, DOC_KIB * 1024,
                       dtype=np.uint8).tobytes()
        for i in range(DOCS)
    }
    snapshots = [dict(files)]
    for _ in range(1, SESSIONS):
        # Two thirds of the documents change between sessions.
        for path in sorted(files):
            if r.random() < 2 / 3:
                files[path] = _edit(files[path], r)
        snapshots.append(dict(files))
    return snapshots


def _run(delta: bool):
    # Unpadded containers so upload volume reflects payload, not the
    # fixed-size padding floor — the same setting for both arms.
    config = aa_dedupe_config(delta_compress=delta,
                              container_size=256 * 1024,
                              pad_containers=False)
    cloud = InMemoryBackend()
    client = BackupClient(cloud, config)
    stats = [client.backup(MemorySource(snap))
             for snap in _versioned_sessions()]
    client.close()
    return cloud, stats


def test_delta_savings_on_versioned_documents():
    snapshots = _versioned_sessions()
    exact_cloud, exact_stats = _run(delta=False)
    delta_cloud, delta_stats = _run(delta=True)

    table = Table(["session", "exact upload", "delta upload",
                   "delta chunks", "delta saved", "DR exact", "DR delta"])
    for ex, de in zip(exact_stats, delta_stats):
        table.add_row([
            de.session_id,
            format_bytes(ex.bytes_uploaded),
            format_bytes(de.bytes_uploaded),
            de.chunks_delta,
            format_bytes(de.delta_bytes_saved),
            f"{ex.dedup_ratio:.2f}",
            f"{de.dedup_ratio:.2f}",
        ])
    exact_total = exact_cloud.stats.bytes_uploaded
    delta_total = delta_cloud.stats.bytes_uploaded
    emit(table.render()
         + f"\ntotal uploaded: exact {format_bytes(exact_total)}, "
           f"delta {format_bytes(delta_total)} "
           f"({100 * (1 - delta_total / exact_total):.1f}% less)")

    # The headline claim: measurably fewer bytes shipped.
    assert delta_total < exact_total
    assert sum(s.chunks_delta for s in delta_stats) > 0
    assert sum(s.delta_bytes_saved for s in delta_stats) > 0
    # Incremental sessions must beat exact dedup, not just tie it.
    incr_exact = sum(s.bytes_unique for s in exact_stats[1:])
    incr_delta = sum(s.bytes_unique for s in delta_stats[1:])
    assert incr_delta < incr_exact

    # Every delta-enabled session restores bit-identically...
    restorer = RestoreClient(delta_cloud)
    for sid, snap in enumerate(snapshots):
        out, _ = restorer.restore_to_memory(sid)
        assert out == snap, f"session {sid} not bit-identical"

    # ...and the store passes a full scrub with zero findings.
    report = scrub_cloud(delta_cloud)
    assert report.clean, report.problems
    assert report.deltas_validated > 0
