"""Periodic index synchronisation to the cloud (paper Sec. III-E).

"A periodical data synchronization scheme is also proposed in AA-Dedupe
to backup the application-aware index in the cloud storage to protect
the data integrity of the PC backup datasets."  Each application
subindex is serialised as one object (its partition is a free sharding),
so after a client loss the index — and with it dedup continuity — is
recoverable from the cloud alone.

Change detection is *content-exact*.  A dedup hit only reads the
index, so a subindex changes only when it gains or loses an entry.
Replication keys off two signals per subindex:

* the subindex ``generation`` (advanced by every insert) — a cheap skip
  that avoids serialising an untouched subindex at all;
* a SHA-1 digest of the serialised subindex — the authoritative
  comparison against what the cloud replica actually contains, so a
  recovered-then-extended local subindex is always re-replicated.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.core import naming
from repro.errors import CloudError
from repro.index.appaware import AppAwareIndex
from repro.index.base import IndexEntry

__all__ = ["IndexSynchronizer"]


class IndexSynchronizer:
    """Pushes/pulls the application-aware index to/from cloud storage."""

    def __init__(self, cloud) -> None:
        self.cloud = cloud
        #: Subindex ``generation`` at the last successful push — fast
        #: path: an unchanged generation means no insert happened, so
        #: the subindex need not even be serialised.
        self._pushed_generations: Dict[str, int] = {}
        #: SHA-1 of the replica blob the cloud is known to hold.  Only
        #: ever recorded from bytes that were actually uploaded (push)
        #: or downloaded (pull) — never inferred from local state.
        self._replica_digests: Dict[str, bytes] = {}

    # ------------------------------------------------------------------
    def push(self, index: AppAwareIndex) -> int:
        """Replicate every *changed* subindex; returns objects uploaded.

        Fault-tolerant per subindex: a failed put is skipped (its dirty
        state is kept, so the next push retries it) while the remaining
        subindices still replicate.  When any subindex failed, a
        :class:`~repro.errors.CloudError` summarising the failures is
        raised *after* the full pass — the caller decides whether that
        degrades to a warning (the backup engine does: dedup continuity
        is recoverable, so an index-sync failure must not fail the
        backup).
        """
        uploaded = 0
        failures = []
        for app in index.apps:
            sub = index.subindex(app)
            generation = sub.generation
            if self._pushed_generations.get(app) == generation:
                continue  # no insert since the last successful push
            blob = b"".join(e.pack() for e in sub.entries())
            digest = hashlib.sha1(blob).digest()
            if digest == self._replica_digests.get(app):
                # Mutations happened but the serialised content matches
                # the replica byte for byte (e.g. re-insert of identical
                # entries) — record the generation, skip the upload.
                self._pushed_generations[app] = generation
                continue
            try:
                self.cloud.put(naming.index_key(app), blob)
            except CloudError as exc:
                failures.append(f"{app}: {exc}")
                continue
            self._pushed_generations[app] = generation
            self._replica_digests[app] = digest
            uploaded += 1
        if failures:
            raise CloudError(
                f"index sync incomplete ({uploaded} pushed, "
                f"{len(failures)} failed): " + "; ".join(failures))
        return uploaded

    def pull(self, index: AppAwareIndex) -> int:
        """Disaster recovery: rebuild subindices from cloud replicas.

        Returns the number of entries restored.  Existing local entries
        are preserved (cloud entries do not overwrite newer local state).
        Only the *replica's* content is recorded as pushed: when the
        merge target already held local-only entries, the subindex stays
        dirty so the next :meth:`push` replicates the merged state —
        local survivors of a recovery must reach the cloud.
        """
        restored = 0
        record = IndexEntry.RECORD_SIZE
        for key in self.cloud.list(naming.INDEX_PREFIX):
            app = key[len(naming.INDEX_PREFIX):].rsplit(".", 1)[0]
            blob = self.cloud.get(key)
            sub = index.subindex(app)
            was_empty = len(sub) == 0
            for pos in range(0, len(blob), record):
                entry = IndexEntry.unpack(blob[pos:pos + record])
                if sub.lookup(entry.fingerprint) is None:
                    sub.insert(entry)
                    restored += 1
            self._replica_digests[app] = hashlib.sha1(blob).digest()
            if was_empty:
                # Local state now equals the replica exactly; the next
                # push may skip it without re-serialising.
                self._pushed_generations[app] = sub.generation
            else:
                # Merged into pre-existing local entries: content may
                # exceed the replica, so leave the subindex dirty (the
                # digest check decides whether an upload is needed).
                self._pushed_generations.pop(app, None)
        return restored
