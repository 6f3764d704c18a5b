#!/usr/bin/env python3
"""Disaster recovery: lose the client, keep the cloud, carry on.

Dedup continuity after losing the client (the goal of the paper's
index synchronisation, Sec. III-E), here from the manifests alone:

1. a client backs up two weekly snapshots;
2. the laptop "dies" — all local state (index, manifests) is discarded;
3. a brand-new client's first session rebuilds the application-aware
   index from the manifests in the cloud (nothing to call first),
   continues deduplicating against the data already stored and takes
   the next session id, and the whole history remains restorable.

Usage::

    python examples/disaster_recovery.py
"""

from __future__ import annotations

from repro import BackupClient, RestoreClient, aa_dedupe_config
from repro.cloud import InMemoryBackend
from repro.util.units import MB, format_bytes
from repro.workloads import (
    WorkloadGenerator,
    materialize_snapshot,
    snapshot_to_memory_source,
)


def main() -> None:
    generator = WorkloadGenerator(total_bytes=20 * MB, seed=77,
                                  max_mean_file_size=2 * MB)
    snapshots = list(generator.sessions(3))
    cloud = InMemoryBackend()

    print("== life before the disaster ==")
    client = BackupClient(cloud, aa_dedupe_config())
    for snap in snapshots[:2]:
        stats = client.backup(snapshot_to_memory_source(snap))
        print(f"  session {stats.session_id}: uploaded "
              f"{format_bytes(stats.bytes_uploaded)} "
              f"(DR {stats.dedup_ratio:.1f})")
    index_size = len(client.index)
    print(f"  local index: {index_size} fingerprints across "
          f"{len(client.index.apps)} application subindices")

    print("\n== laptop stolen; local state gone ==")
    del client

    print("\n== new machine: the first session rebuilds the index ==")
    new_client = BackupClient(cloud, aa_dedupe_config())
    stats = new_client.backup(snapshot_to_memory_source(snapshots[2]))
    assert stats.session_id == 2
    assert len(new_client.index) == index_size + stats.chunks_unique
    print(f"  session 2 on the new machine: uploaded "
          f"{format_bytes(stats.bytes_uploaded)} "
          f"(DR {stats.dedup_ratio:.1f}) — dedup continuity preserved")
    print(f"  index: {len(new_client.index)} fingerprints "
          f"({index_size} rebuilt from the manifests, "
          f"{stats.chunks_unique} new)")

    print("\n== every session is still restorable ==")
    for sid, snap in enumerate(snapshots):
        restored, report = RestoreClient(cloud).restore_to_memory(sid)
        assert restored == materialize_snapshot(snap)
        print(f"  session {sid}: {report.files_restored} files verified")
    print("disaster recovery complete")


if __name__ == "__main__":
    main()
