"""Per-job retention applied through the real garbage collector.

Each job's sessions live as manifests in its tenant namespace
(``clients/<job>/manifests/``).  Applying a retention policy is a
two-phase operation on the *shared* backend:

1. **select + drop** — catalogue the job's sessions through its
   :class:`~repro.cloud.NamespacedBackend` view, let the policy pick the
   retained set, and delete the dropped manifests *through the view*
   (only this job's liveness pins are released);
2. **sweep** — run :func:`~repro.core.gc.collect_garbage` against the
   **root** backend, retaining every root session.  The collector's
   fleet-wide mark phase re-walks every surviving tenant manifest, so
   data another job still references is never deleted, and a
   data-deleting sweep bumps every tenant's stat-cache epoch.

Running the collector through the job's view instead would be unsafe:
the view maps the tenant mark walk to ``clients/<job>/clients/…`` —
empty — so every *other* job's liveness pins would be invisible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core import naming
from repro.core.gc import GCReport, collect_garbage, session_catalog

__all__ = ["RetentionOutcome", "apply_retention"]


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


def apply_retention(root, view, policy, now: float,
                    tracer=None) -> Optional[RetentionOutcome]:
    """Apply ``policy`` to the job behind ``view``; sweep via ``root``.

    ``view`` is the job's namespaced backend, ``root`` the underlying
    shared backend, ``now`` the virtual time the policy evaluates ages
    against.  Returns ``None`` when the job has no sessions yet.
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
    report: GCReport = collect_garbage(root, naming.session_ids(root))
    outcome.deleted_containers = report.deleted_containers
    outcome.deleted_objects = report.deleted_objects
    outcome.statcache_invalidated = report.statcache_invalidated
    outcome.problems = list(report.problems)
    return outcome
