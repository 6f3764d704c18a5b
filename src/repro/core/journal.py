"""Crash-consistent session journals for resumable backups.

A backup session over a flaky consumer WAN can die mid-flight — power
loss, crash, link gone for hours.  Without a journal a re-run re-uploads
every container, because nothing below the final manifest records what
already made it to the cloud.  :class:`SessionJournal` fixes that:

* one small JSON object per *in-flight* session
  (``journals/session-NNNNNN.json``) maps each durably-uploaded object
  key to the SHA-1 of the bytes that were stored under it;
* an entry is recorded only **after** the corresponding put succeeded
  (write-behind), so the journal never claims an object the cloud does
  not hold;
* on a re-run of the same session id, the client reloads the journal,
  restarts container numbering from the journalled
  ``first_container_id``, and skips any upload whose key **and blob
  digest** match a journal entry.  The digest check makes skipping
  *safe* rather than merely plausible: if re-chunking produced different
  bytes for a journalled key (non-deterministic packing, changed
  source), the object is simply re-uploaded — resume degrades to
  correctness, never to corruption;
* the successful manifest upload is the session's commit record; the
  journal is then deleted (:meth:`commit`).  A journal present in the
  cloud therefore always denotes an interrupted session.

Journal maintenance is best-effort by design: a failed journal put or
delete is recorded as a warning (the backup itself must not fail because
its *resume optimisation* hit a cloud error).
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Dict, List

from repro.core import naming
from repro.errors import CloudError, ObjectNotFound

__all__ = ["SessionJournal"]


def _digest(blob: bytes) -> str:
    return hashlib.sha1(blob).hexdigest()


class SessionJournal:
    """Durable record of one session's completed uploads.

    The journal is flushed to the cloud after every recorded upload —
    with 1 MB containers the overhead is a tiny object per ~1 MB of
    payload, and a crash loses at most the upload in flight.
    """

    VERSION = 1

    def __init__(self, cloud, session_id: int,
                 first_container_id: int = 0) -> None:
        self.cloud = cloud
        self.session_id = session_id
        self.key = naming.journal_key(session_id)
        self.first_container_id = first_container_id
        #: True when this journal was reloaded from an interrupted run.
        self.resumed = False
        #: Uploads skipped because the journal proved them durable.
        self.skipped_objects = 0
        self.skipped_bytes = 0
        #: Non-fatal journal maintenance failures.
        self.warnings: List[str] = []
        self._done: Dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, cloud, session_id: int,
             first_container_id: int = 0) -> "SessionJournal":
        """Open the journal for ``session_id``, resuming a cloud copy
        left by an interrupted run when one exists."""
        journal = cls(cloud, session_id, first_container_id)
        try:
            blob = cloud.get(journal.key)
        except ObjectNotFound:
            return journal
        except CloudError as exc:
            journal.warnings.append(
                f"journal load failed (starting fresh): {exc}")
            return journal
        try:
            doc = json.loads(blob)
            journal._done = dict(doc["done"])
            journal.first_container_id = int(doc["first_container_id"])
        except (ValueError, KeyError, TypeError) as exc:
            journal.warnings.append(
                f"journal unreadable (starting fresh): {exc}")
            journal._done = {}
            return journal
        journal.resumed = True
        return journal

    # ------------------------------------------------------------------
    def completed(self, key: str, blob: bytes) -> bool:
        """True iff ``key`` was durably uploaded with exactly ``blob``."""
        with self._lock:
            recorded = self._done.get(key)
        if recorded is None or recorded != _digest(blob):
            return False
        self.skipped_objects += 1
        self.skipped_bytes += len(blob)
        return True

    def record(self, key: str, blob: bytes) -> None:
        """Note that ``blob`` is now durable under ``key`` and flush.
        Call only after the put succeeded."""
        with self._lock:
            self._done[key] = _digest(blob)
        self.flush()

    def flush(self) -> None:
        """Replicate the journal to the cloud (best effort)."""
        with self._lock:
            doc = {"version": self.VERSION,
                   "session": self.session_id,
                   "first_container_id": self.first_container_id,
                   "done": dict(sorted(self._done.items()))}
        blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        try:
            self.cloud.put(self.key, blob)
        except CloudError as exc:
            self.warnings.append(f"journal flush failed: {exc}")

    def commit(self) -> None:
        """Delete the journal: the session's manifest is durable, so the
        resume record is no longer needed (best effort)."""
        try:
            self.cloud.delete(self.key)
        except CloudError as exc:
            self.warnings.append(f"journal cleanup failed: {exc}")

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)
