"""A GC sweep must not corrupt the client's next backups.

Every client-side copy of store state — the chunk index, the SAM file
tier, the previous manifest that the stat cache and Jungle Disk
replay — may point into extents a sweep just
deleted.  The client reads the GC epoch at every session open; when it
moved or cannot be read, the client drops its previous manifest and
rebuilds its index from the retained manifests, as a fresh client's
first session open does (the ``resumed_client`` arm).  GC moves the epoch after it deletes the dropped manifests and
before it deletes any data, so a sweep cut short never leaves a live
client trusting deleted extents.  Every later session must restore
bit-exactly.
"""

import numpy as np
import pytest

from repro.baselines import (avamar_config, backuppc_config,
                             jungle_disk_config, sam_config)
from repro.cloud import InMemoryBackend
from repro.core import (BackupClient, MemorySource, RestoreClient,
                        aa_dedupe_config, collect_garbage)
from repro.core import naming
from repro.core.scrub import scrub_cloud
from repro.errors import CloudError, TransientCloudError
from repro.index import DiskIndex
from repro.util.units import KIB

SCHEMES = {
    "AA-Dedupe": aa_dedupe_config,
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


class _Store(InMemoryBackend):
    """Fails the next GET of the GC epoch once ``down`` is set, and the
    ``cut_at``-th DELETE (counted from arming); logs every GET's key."""

    down = False
    cut_at = 0

    def __init__(self) -> None:
        super().__init__()
        self.gets: list = []

    def _get(self, key):
        self.gets.append(key)
        if self.down and key == naming.STATCACHE_EPOCH_KEY:
            self.down = False
            raise TransientCloudError(f"injected failure: get {key}")
        return super()._get(key)

    def _delete(self, key):
        if self.cut_at:
            self.cut_at -= 1
            if not self.cut_at:
                raise TransientCloudError(f"injected failure: delete {key}")
        return super()._delete(key)


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


def _sweep_then_backup(scheme, scenario, arm, cut_at=0, tmp_path=None):
    """Sessions 0 and 1, a GC (cut short at its ``cut_at``-th DELETE),
    then session 2.  Returns whether the GC completed."""
    before, retain, after = SCENARIOS[scenario]
    cloud = _Store()
    made: list = []
    factory = None
    if arm == "disk_index":
        def factory(app):
            made.append(DiskIndex(tmp_path / f"{len(made)}-{app}",
                                  memtable_limit=8))
            return made[-1]
    # Cuts land between data DELETEs only when there are several.
    config = SCHEMES[scheme](**({"container_size": 16 * KIB} if cut_at
                                else {}))
    client = BackupClient(cloud, config, index_factory=factory)
    try:
        for files in before:
            client.backup(_snapshot(files))
        cloud.cut_at = cut_at
        try:
            report = collect_garbage(cloud, retain)
        except CloudError:
            completed = False
        else:
            completed = True
            assert report.deleted_containers + report.deleted_objects > 0
        cloud.cut_at = 0
        if arm == "resumed_client":
            client.close()
            client = BackupClient(cloud, config)
        cloud.down = arm == "epoch_unreadable"
        stats = client.backup(_snapshot(after), session_id=2)
        assert not cloud.down
    finally:
        client.close()
        for index in made:
            index.close()
    assert stats.session_id == 2
    out, _ = RestoreClient(cloud).restore_to_memory(2)
    assert out == after
    # The next complete GC leaves a clean store.
    collect_garbage(cloud, [*retain, 2])
    assert scrub_cloud(cloud).clean
    return completed


@pytest.mark.parametrize("arm", ["same_client", "resumed_client",
                                 "epoch_unreadable", "gc_cut_short",
                                 "disk_index"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_backup_after_sweep_restores(scheme, scenario, arm, tmp_path):
    # ``epoch_unreadable``: the same client, but session 2 cannot read
    # the epoch the sweep bumped.  ``gc_cut_short``: the same client,
    # after a GC that failed at its k-th DELETE, for every k up to a
    # completed sweep.  ``disk_index``: the same client on DiskIndex
    # subindices, a fresh directory per factory call.
    if arm != "gc_cut_short":
        assert _sweep_then_backup(scheme, scenario, arm, tmp_path=tmp_path)
        return
    k = 1
    while not _sweep_then_backup(scheme, scenario, arm, cut_at=k):
        k += 1
    assert k > 2  # at least one manifest and one data DELETE were cut


def test_unchanged_epoch_keeps_client_state():
    # No sweep in between: the epoch is read and the index is not
    # rebuilt (no manifest GET, no LIST), and every chunk of the repeat
    # session deduplicates.
    cloud = _Store()
    client = BackupClient(cloud, aa_dedupe_config())
    client.backup(_snapshot({"a.txt": A, "b.pdf": B}))
    listed, got = cloud.stats.list_requests, len(cloud.gets)
    stats = client.backup(_snapshot({"a.txt": A, "b.pdf": B}))
    assert cloud.stats.list_requests == listed
    assert not [key for key in cloud.gets[got:]
                if key.startswith(naming.MANIFEST_PREFIX)]
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
