"""A GC sweep must not corrupt the client's next backups.

Every client-side copy of store state — the chunk index and its cloud
replicas, the SAM file tier, the delta stage's bases and refs, Jungle
Disk's previous manifest, the stat cache — may point into extents a
sweep just deleted.  The client reads the GC epoch at every session
open and reconciles when it moved, and once after
``resume_from_cloud``'s pull; every later session must restore
bit-exactly.
"""

import numpy as np
import pytest

from repro.baselines import (avamar_config, backuppc_config,
                             jungle_disk_config, sam_config)
from repro.cloud import InMemoryBackend
from repro.core import (BackupClient, MemorySource, RestoreClient,
                        aa_dedupe_config, collect_garbage)
from repro.core.scrub import scrub_cloud

SCHEMES = {
    "AA-Dedupe": aa_dedupe_config,
    "AA-Dedupe+delta": lambda: aa_dedupe_config(delta_compress=True),
    "SAM": sam_config,
    "Avamar": avamar_config,
    "BackupPC": backuppc_config,
    "JungleDisk": jungle_disk_config,
}


def _blob(seed: int, n: int = 40_000) -> bytes:
    # Own generator: the session-wide `rng` stream feeds later tests.
    return np.random.default_rng(seed).integers(
        0, 256, n, dtype=np.uint8).tobytes()


A, A2, B = _blob(1), _blob(2), _blob(3)


def _snapshot(files: dict) -> MemorySource:
    """Files with stable, content-derived mtimes (so metadata change
    detection and the stat cache see real stat triples)."""
    return MemorySource(files, mtimes={
        path: 1 + int.from_bytes(data[:4], "big")
        for path, data in files.items()})


#: (sessions 0 and 1, sessions GC retains, session 2).
SCENARIOS = {
    # Session 1 drops a.txt; the sweep takes its extents; session 2
    # brings it back.
    "drop_then_return": ([{"a.txt": A, "b.pdf": B}, {"b.pdf": B}], [1],
                         {"a.txt": A, "b.pdf": B}),
    # Session 1 rewrites a.txt and is then dropped; session 2 is
    # session 1's snapshot again.
    "newer_session_dropped": ([{"a.txt": A, "b.pdf": B},
                               {"a.txt": A2, "b.pdf": B}], [0],
                              {"a.txt": A2, "b.pdf": B}),
}


@pytest.mark.parametrize("resumed", [False, True],
                         ids=["same_client", "resumed_client"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_backup_after_sweep_restores(scheme, scenario, resumed):
    before, retain, after = SCENARIOS[scenario]
    cloud = InMemoryBackend()
    client = BackupClient(cloud, SCHEMES[scheme]())
    for files in before:
        client.backup(_snapshot(files))
    report = collect_garbage(cloud, retain)
    assert report.deleted_containers + report.deleted_objects > 0
    if resumed:
        client.close()
        client = BackupClient(cloud, SCHEMES[scheme]())
        client.resume_from_cloud()
    stats = client.backup(_snapshot(after), session_id=2)
    client.close()
    assert stats.session_id == 2
    out, _ = RestoreClient(cloud).restore_to_memory(2)
    assert out == after
    assert scrub_cloud(cloud).clean


def test_unchanged_epoch_keeps_client_state():
    # No sweep in between: the epoch is read, nothing is forgotten and
    # every chunk of the repeat session deduplicates.
    cloud = InMemoryBackend()
    client = BackupClient(cloud, aa_dedupe_config())
    client.backup(_snapshot({"a.txt": A, "b.pdf": B}))
    listed = cloud.stats.list_requests
    stats = client.backup(_snapshot({"a.txt": A, "b.pdf": B}))
    assert cloud.stats.list_requests == listed  # no reconcile LIST
    assert stats.chunks_unique == 0


def test_jungle_disk_mtime_less_source_uploads_changes():
    # A zero mtime is "unknown": it never proves a file unchanged, for
    # Jungle Disk's change detection exactly as for the stat cache.
    cloud = InMemoryBackend()
    client = BackupClient(cloud, jungle_disk_config())
    client.backup(MemorySource({"a.txt": b"x" * 50_000}))
    client.backup(MemorySource({"a.txt": b"y" * 50_000}))
    out, _ = RestoreClient(cloud).restore_to_memory(1)
    assert out == {"a.txt": b"y" * 50_000}
