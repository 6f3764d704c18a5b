"""Retention policies: which backup sessions to keep.

The garbage collector (:mod:`repro.core.gc`) takes an explicit retain
set; these helpers compute that set from operator-friendly policies —
the glue a deployable backup tool needs around "supporting deletion of
files" (paper Sec. III-F).

Two policies are provided:

* :class:`RetainLastN` — rolling window over manifest *timestamps*
  (``repro gc --keep-last`` and the service layer's ``retain-last``);
* :class:`RetainMaxAge` — drop sessions older than a cutoff.

Both share one interface — ``select(sessions, now)`` over a
``{session_id: created_ts}`` catalog (see
:func:`repro.core.gc.session_catalog`) — so :func:`apply_retention`,
the service's per-job drop and sweep, applies either interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Set

from repro.core import naming
from repro.core.gc import collect_garbage, session_catalog
from repro.errors import ConfigError

__all__ = ["RetainLastN", "RetainMaxAge", "RetentionOutcome",
           "apply_retention"]


@dataclass(frozen=True)
class RetainLastN:
    """Retain the ``count`` newest sessions by creation time.

    Recency is decided by the manifest's ``created`` stamp (session ids
    break ties), so explicit re-runs of an old session id never shadow
    genuinely newer sessions.  ``count <= 0`` is a configuration error —
    a drop-everything retain set must be explicit (``repro gc
    --retain ""``), never a config typo.
    """

    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError(
                f"retain-last count must be >= 1, got {self.count}")

    def select(self, sessions: Mapping[int, float],
               now: float = 0.0) -> Set[int]:
        """Return the retained ids from ``{session_id: created_ts}``."""
        ordered = sorted(sessions, key=lambda sid: (sessions[sid], sid))
        return set(ordered[-self.count:])


@dataclass(frozen=True)
class RetainMaxAge:
    """Retain sessions no older than ``max_age_seconds`` at ``now``.

    The newest session is always retained, whatever its age: a backup
    service must never transition from "old backups" to "no backups"
    purely by the passage of time.
    """

    max_age_seconds: float

    def __post_init__(self) -> None:
        if self.max_age_seconds <= 0:
            raise ConfigError(
                f"max-age must be > 0 seconds, got {self.max_age_seconds}")

    def select(self, sessions: Mapping[int, float],
               now: float) -> Set[int]:
        """Return the retained ids from ``{session_id: created_ts}``."""
        if not sessions:
            return set()
        retain = {sid for sid, ts in sessions.items()
                  if now - ts <= self.max_age_seconds}
        retain.add(max(sessions, key=lambda sid: (sessions[sid], sid)))
        return retain


@dataclass
class RetentionOutcome:
    """What one retention pass selected and what the sweep removed."""

    policy: str
    retained: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    deleted_containers: int = 0
    deleted_objects: int = 0
    statcache_invalidated: bool = False
    #: GC refusals (unreadable manifests etc.); non-empty means the
    #: dropped manifests are gone but no data was swept this pass — the
    #: next clean sweep reclaims it.
    problems: List[str] = field(default_factory=list)

    @property
    def swept(self) -> bool:
        return self.deleted_containers > 0 or self.deleted_objects > 0


def apply_retention(root, view, policy,
                    now: float) -> Optional[RetentionOutcome]:
    """Apply ``policy`` to the job behind ``view``; sweep via ``root``.

    ``view`` is the job's namespaced backend, ``root`` the shared
    backend under it, ``now`` the time the policy ages sessions
    against.  The dropped manifests go *through the view* (only this
    job's liveness pins are released); the sweep runs on ``root``,
    whose mark re-walks every tenant's manifests, so data another job
    still references is never deleted.  Through the view it would be
    unsafe: the view maps the tenant walk to ``clients/<job>/clients/``,
    which is empty.  Returns ``None`` when the job has no sessions yet.
    """
    catalog = session_catalog(view)
    if not catalog:
        return None
    retained = policy.select(catalog, now)
    dropped = sorted(set(catalog) - retained)
    outcome = RetentionOutcome(policy=type(policy).__name__,
                               retained=sorted(retained),
                               dropped=dropped)
    if not dropped:
        return outcome
    for session_id in dropped:
        view.delete(naming.manifest_key(session_id))
    # Root sessions are not this job's to drop: retain them all.  The
    # sweep still reclaims whatever the dropped tenant manifests alone
    # were pinning.
    report = collect_garbage(root, naming.session_ids(root))
    outcome.deleted_containers = report.deleted_containers
    outcome.deleted_objects = report.deleted_objects
    outcome.statcache_invalidated = report.statcache_invalidated
    outcome.problems = list(report.problems)
    return outcome
