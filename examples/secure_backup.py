#!/usr/bin/env python3
"""Secure deduplication: encrypted backups that still deduplicate.

Demonstrates the paper's future-work direction (Sec. VI) implemented in
:mod:`repro.secure`: convergent encryption gives confidentiality against
the cloud provider while preserving deduplication — even *across
clients that share no keys*.

Usage::

    python examples/secure_backup.py
"""

from __future__ import annotations

from repro import BackupClient, RestoreClient, aa_dedupe_config
from repro.cloud import InMemoryBackend
from repro.core import MemorySource
from repro.core import naming
from repro.errors import IntegrityError, RestoreError
from repro.util.units import KIB, MB, format_bytes
from repro.workloads import WorkloadGenerator, materialize_snapshot

ALICE_KEY = b"alice-master-secret-32-bytes!!!!"
BOB_KEY = b"bob-completely-different-secret!"


def main() -> None:
    snapshot = WorkloadGenerator(total_bytes=15 * MB, seed=55,
                                 max_mean_file_size=1 * MB
                                 ).initial_snapshot()
    files = materialize_snapshot(snapshot)
    cloud = InMemoryBackend()
    config = aa_dedupe_config(encrypt_chunks=True,
                              container_size=64 * KIB)

    print("== Alice backs up, encrypted ==")
    alice = BackupClient(cloud, config, master_key=ALICE_KEY)
    stats = alice.backup(MemorySource(files))
    print(f"  uploaded {format_bytes(stats.bytes_uploaded)} "
          f"in {stats.put_requests} PUTs (DR {stats.dedup_ratio:.2f})")

    # The provider sees only ciphertext.
    blob = b"".join(cloud._objects[k]
                    for k in cloud.list(naming.CONTAINER_PREFIX))
    leaked = sum(data[:64] in blob for data in files.values() if data)
    print(f"  plaintext prefixes visible to the provider: {leaked}")

    print("\n== Bob (different master key) backs up the same data ==")
    bob = BackupClient(cloud, config, master_key=BOB_KEY)
    # Bob's first session open reads Alice's manifest, so his session
    # takes the next id and dedups against her ciphertext.
    stats = bob.backup(MemorySource(files))
    print(f"  session {stats.session_id}: new chunks uploaded: "
          f"{stats.chunks_unique} "
          f"(convergent encryption ⇒ full cross-client dedup)")

    print("\n== restores ==")
    restored, _ = RestoreClient(cloud,
                                master_key=BOB_KEY).restore_to_memory(
                                    stats.session_id)
    assert restored == files
    print("  Bob restores his session bit-exactly with his own key")

    try:
        RestoreClient(cloud).restore_to_memory(0)
    except RestoreError as exc:
        print(f"  restore without a key refused: {exc}")
    try:
        RestoreClient(cloud, master_key=b"wrong" * 8).restore_to_memory(0)
    except IntegrityError as exc:
        print(f"  restore with a wrong key detected: {exc}")


if __name__ == "__main__":
    main()
