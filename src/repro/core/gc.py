"""Deletion support: mark-and-sweep garbage collection of cloud state.

"Supporting deletion of files requires an additional process in the
background" (Sec. III-F).  The collector marks what the retained root
sessions and every tenant's manifests reference, so GC of a shared
fleet backend never collects data a tenant still uses, and it needs no
client-side refcounts, so it is crash-safe.  The mark is
:func:`repro.core.walk.mark_store`, which durability planning reads
criticality from too.  Then it deletes the dropped manifests, the
unreferenced containers and standalone objects, and the replicas of
dead containers with their plan entries: a replica dies exactly when
its container leaves the live set, so the last surviving copy of a
referenced container is never collected.  The report carries
per-container live bytes (fragmentation visibility; compaction would
need manifest rewrites, which the paper never does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.core import naming
from repro.core.filecache import invalidate_statcache
from repro.core.walk import StoreWalk, mark_store
from repro.durability.policy import ReplicationPlan
from repro.errors import ReproError

__all__ = ["GCReport", "collect_garbage", "session_catalog"]


@dataclass
class GCReport:
    """What the collector found and removed."""

    retained_sessions: List[int] = field(default_factory=list)
    deleted_manifests: int = 0
    deleted_containers: int = 0
    deleted_objects: int = 0
    #: Replica copies swept alongside their dead containers.
    deleted_replicas: int = 0
    #: Replication-plan entries dropped with their containers.
    plan_pruned: int = 0
    #: Tenant-namespace manifests that contributed liveness marks.
    tenant_manifests_marked: int = 0
    live_containers: int = 0
    #: container_id -> bytes of the distinct extents the live manifests
    #: (retained root sessions and every tenant's) reference in it —
    #: fragmentation visibility; see :class:`~repro.core.walk.
    #: ContainerMark` for what counts.
    container_live_bytes: Dict[int, int] = field(default_factory=dict)
    #: Conditions that made the collector refuse to sweep (e.g. a
    #: retained manifest that failed to parse).  Non-empty problems mean
    #: nothing was deleted and the CLI exits non-zero.
    problems: List[str] = field(default_factory=list)
    #: Whether the sweep deleted data and therefore bumped the GC epoch,
    #: invalidating all stat caches (see docs/STATCACHE.md).
    statcache_invalidated: bool = False
    #: Persisted stat-cache blobs removed by the invalidation.
    statcache_blobs_deleted: int = 0


def session_catalog(cloud) -> Dict[int, float]:
    """``{session_id: created_ts}`` for every root manifest ``cloud``
    sees.

    This is the retention selection helper: the timestamp-based
    policies (:class:`~repro.core.retention.RetainLastN`,
    :class:`~repro.core.retention.RetainMaxAge`) select their retained
    set from this catalog.  Called through a
    :class:`~repro.cloud.NamespacedBackend` view it catalogues that
    tenant's private sessions.  An unreadable manifest raises
    :class:`~repro.errors.ReproError` — a session whose age cannot be
    proven must never be silently classified as droppable.
    """
    walk = StoreWalk(cloud)
    catalog: Dict[int, float] = {}
    for record in walk.manifests:
        if record.namespace is None and record.session_id is not None:
            try:
                catalog[record.session_id] = walk.load(record).created
            except ReproError as exc:
                raise ReproError(
                    f"manifest {record.key} unreadable: {exc}") from exc
    return catalog


def collect_garbage(cloud, retain_sessions: Iterable[int]) -> GCReport:
    """Drop all sessions except ``retain_sessions`` and sweep dead data.

    ``cloud`` needs ``list/get/delete``.  Returns a :class:`GCReport`.
    """
    retain = set(retain_sessions)
    report = GCReport(retained_sessions=sorted(retain))
    walk = StoreWalk(cloud)
    marked = mark_store(walk, retain)
    live = marked.containers
    report.problems = marked.problems
    report.tenant_manifests_marked = marked.tenant_manifests
    report.live_containers = len(live)
    report.container_live_bytes = {cid: mark.live_bytes
                                   for cid, mark in live.items()}
    # An incomplete mark phase means the live sets are untrustworthy;
    # sweeping on them could delete live data.  Refuse instead.
    if report.problems:
        return report

    # --- sweep: manifests of dropped sessions --------------------------
    for record in walk.manifests:
        if record.namespace is None and record.session_id not in retain:
            cloud.delete(record.key)
            report.deleted_manifests += 1

    # --- sweep: containers ---------------------------------------------
    # A key that names no container is not GC's to judge (scrub
    # reports it); it must not wedge the sweep either.
    for key in cloud.list(naming.CONTAINER_PREFIX):
        container_id = naming.container_id_of(key)
        if container_id is not None and container_id not in live:
            cloud.delete(key)
            report.deleted_containers += 1

    # --- sweep: durability replicas with their containers ---------------
    # A replica's lifetime is its container's: live container -> every
    # copy is kept (even when it is the last survivor of a lost
    # primary); dead container -> all copies go with it.  Keys that do
    # not parse as replica keys are left for scrub to flag.
    for key in cloud.list(naming.REPLICA_PREFIX):
        parsed = naming.parse_replica_key(key)
        if parsed is not None and parsed[1] not in live:
            cloud.delete(key)
            report.deleted_replicas += 1
    plan = ReplicationPlan.load(cloud)
    if plan is not None:
        report.plan_pruned = plan.prune(live)
        if report.plan_pruned:
            plan.save(cloud)

    # --- sweep: standalone chunk/file/delta objects ---------------------
    # The chunk pool is shared; file and delta blobs are swept in every
    # tenant too, so per-job retention frees space for file-granularity
    # and delta jobs.
    for key in [*cloud.list(naming.CHUNK_PREFIX),
                *walk.keys(naming.FILE_PREFIX),
                *walk.keys(naming.DELTA_PREFIX)]:
        if key not in marked.objects:
            cloud.delete(key)
            report.deleted_objects += 1

    # --- invalidate stat caches ----------------------------------------
    # Cached recipes may reference the extents just deleted, so any
    # sweep that removed data bumps the GC epoch of the root and of
    # every tenant: persisted blobs are dropped here, client-side state
    # on the next session open (see docs/STATCACHE.md).  Manifest-only
    # deletions leave every extent in place, so caches stay warm.
    if report.deleted_containers or report.deleted_objects:
        report.statcache_blobs_deleted = invalidate_statcache(
            cloud, walk.tenant_keys)
        report.statcache_invalidated = True
    return report
