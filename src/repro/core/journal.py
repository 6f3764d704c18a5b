"""Session journals: every interrupted session resumes.

Each session records its durable uploads (key, SHA-1 of the stored
bytes; of a container, of its descriptor table and CRC-carrying footer),
only **after** each put succeeded, in append-only segments
``journals/session-NNNNNN.SSSSSS.json``: one PUT per
:data:`SEGMENT_RECORDS` records and one when the session fails; segment
0 also holds ``first_container_id``.  A re-run loads segments 0, 1, …,
restarts container numbering at ``first_container_id`` and skips any
upload whose key **and blob digest** match a record and whose key a LIST
still shows.  Other bytes for a recorded key are re-uploaded after a
segment revokes the record, so resume degrades to correctness, never to
corruption.  The manifest PUT commits the session and :meth:`commit`
deletes its segments.  A hard kill loses at most ``SEGMENT_RECORDS - 1``
records; a failed journal request is a warning, never a failed backup
(docs/RESILIENCE.md has the protocol).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from typing import Dict, List

from repro.container.format import sealed_digest
from repro.core import naming
from repro.errors import CloudError, ObjectNotFound

__all__ = ["SessionJournal", "SEGMENT_RECORDS"]

#: Records per journal segment: one journal PUT per this many uploads.
SEGMENT_RECORDS = 64


def _digest(key: str, blob: bytes) -> str:
    """What a record vouches for: a container by its table and footer
    (:func:`sealed_digest`), any other object by the SHA-1 of its bytes."""
    if naming.container_id_of(key) is not None:
        return sealed_digest(blob)
    return hashlib.sha1(blob).hexdigest()


class SessionJournal:
    """Durable record of one session's completed uploads.

    :meth:`put` and :meth:`flush` run on one thread at a time (the
    client's cloud lock); :meth:`completed` may run beside them.
    """

    def __init__(self, cloud, session_id: int,
                 first_container_id: int = 0) -> None:
        self.cloud, self.session_id = cloud, session_id
        #: Where numbering starts; whether an interrupted run resumes.
        self.first_container_id, self.resumed = first_container_id, False
        #: Uploads skipped because the journal proved them durable.
        self.skipped_objects = self.skipped_bytes = 0
        #: Non-fatal journal maintenance failures.
        self.warnings: List[str] = []
        self._done: Dict[str, str] = {}
        #: Records not yet in a stored segment.
        self._pending: Dict[str, str] = {}
        #: The next segment to write; how many (from 0) the store may hold.
        self._next_segment = self._stored_segments = 0
        self._lock = threading.Lock()

    @classmethod
    def load(cls, cloud, session_id: int, first_container_id: int = 0,
             stale=None) -> "SessionJournal":
        """Open the journal for ``session_id`` (one GET of segment 0),
        resuming an interrupted run's segments unless ``stale(its
        first_container_id)``: then it deletes them and starts fresh."""
        journal = cls(cloud, session_id, first_container_id)
        for n in itertools.count():
            key = naming.journal_key(session_id, n)
            try:
                doc = json.loads(cloud.get(key))
                first = int(doc["first_container_id"]) if n == 0 else first
                journal._done.update(dict(doc["done"]))
            except ObjectNotFound:
                break
            except (CloudError, ValueError, KeyError, TypeError) as exc:
                # This run rewrites from here: delete what a later load
                # would splice onto its segments.
                journal.warnings.append(f"journal segment {n} unusable: {exc}")
                try:
                    end = 1 + max(int(k.rsplit(".", 2)[1]) for k in
                                  cloud.list(key.rsplit(".", 2)[0] + "."))
                except (CloudError, ValueError):
                    end = n + 1
                journal._delete(n, end)
                break
        journal._next_segment = n
        journal._stored_segments = max(journal._stored_segments, n)
        if n and stale is not None and stale(first):
            journal.commit()
            journal._done, journal._next_segment = {}, 0
        elif n:
            journal.first_container_id, journal.resumed = first, True
        return journal

    def drop_lost(self) -> None:
        """Revoke the records of uploads the store no longer holds (a
        dead fault domain took them), by one LIST per key prefix and one
        segment; a failed LIST revokes them all."""
        try:
            present = {key for prefix in {k.partition("/")[0] + "/"
                                          for k in self._done}
                       for key in self.cloud.list(prefix)}
        except CloudError as exc:
            self.warnings.append(f"journal check failed: {exc}")
            present = set()
        self._pending.update(dict.fromkeys(self._done.keys() - present, ""))
        self._done = {key: digest for key, digest in self._done.items()
                      if key in present}
        self.flush()

    def completed(self, key: str, blob: bytes) -> bool:
        """True iff ``key`` was durably uploaded with exactly ``blob``."""
        with self._lock:
            recorded = self._done.get(key)
        if recorded is None or recorded != _digest(key, blob):
            return False
        self.skipped_objects += 1
        self.skipped_bytes += len(blob)
        return True

    def put(self, key: str, blob: bytes) -> None:
        """Upload ``blob`` under ``key``, then record it (a full segment
        goes up).  A segment first revokes a record of other bytes under
        ``key``, or a hard kill would leave it vouching for them."""
        digest = _digest(key, blob)
        if self._done.get(key, digest) not in (digest, ""):
            self._pending[key] = ""
            self.flush()
        self.cloud.put(key, blob)
        with self._lock:
            self._done[key] = digest
        self._pending[key] = digest
        if len(self._pending) % SEGMENT_RECORDS == 0:
            self.flush()

    def flush(self) -> None:
        """Write the pending records as the next segment (best effort:
        after a failed PUT they stay pending for the next flush)."""
        if not self._pending:
            return
        doc = {"version": 2, "session": self.session_id,
               "done": self._pending}
        if self._next_segment == 0:
            doc["first_container_id"] = self.first_container_id
        try:
            self.cloud.put(naming.journal_key(self.session_id,
                                              self._next_segment),
                           json.dumps(doc, separators=(",", ":")).encode())
        except CloudError as exc:
            self.warnings.append(f"journal flush failed: {exc}")
            return
        self._pending, self._next_segment = {}, self._next_segment + 1
        self._stored_segments = max(self._stored_segments, self._next_segment)

    def commit(self) -> None:
        """Delete the stored segments: the manifest is durable, so the
        resume record is obsolete."""
        self._delete(0, self._stored_segments)

    def _delete(self, first: int, end: int) -> None:
        """Delete segments ``end - 1`` down to ``first`` (best effort:
        commit retries those up to a failed DELETE)."""
        try:
            for n in reversed(range(first, end)):
                self.cloud.delete(naming.journal_key(self.session_id, n))
                end = n
        except CloudError as exc:
            self.warnings.append(f"journal cleanup failed: {exc}")
        self._stored_segments = end

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)
