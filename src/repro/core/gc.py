"""Deletion support: mark-and-sweep garbage collection of cloud state.

"Supporting deletion of files requires an additional process in the
background" (Sec. III-F).  The collector marks what the retained root
sessions and every tenant's manifests reference, so GC of a shared
fleet backend never collects data a tenant still uses, and it needs no
client-side refcounts, so it is crash-safe.  The mark is
:func:`repro.core.walk.mark_store`, which durability planning reads
criticality from too.  It lists what is dead, deletes the dropped
manifests, moves the GC epoch, and only then deletes the plan entries
and replicas of dead containers, the dead containers, and the
unreferenced standalone objects: a replica dies exactly when its
container leaves the live set, so the last surviving copy of a
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

    # --- what the sweep takes (file blobs in every tenant too) ---------
    plan = ReplicationPlan.load(cloud)
    dead_replicas = [key for key in cloud.list(naming.REPLICA_PREFIX)
                     if (parsed := naming.parse_replica_key(key)) is not None
                     and parsed[1] not in live]
    dead_containers = [key for key in cloud.list(naming.CONTAINER_PREFIX)
                       if (cid := naming.container_id_of(key)) is not None
                       and cid not in live]
    dead_objects = [key for key in [*cloud.list(naming.CHUNK_PREFIX),
                                    *walk.keys(naming.FILE_PREFIX)]
                    if key not in marked.objects]

    # --- the dropped manifests, then the GC epoch ----------------------
    # A client that sees the new epoch rebuilds its index from
    # manifests that name only live data; no data goes before it moves
    # (docs/STATCACHE.md).  Manifest-only deletions keep caches warm.
    for record in walk.manifests:
        if record.namespace is None and record.session_id not in retain:
            cloud.delete(record.key)
            report.deleted_manifests += 1
    if dead_containers or dead_objects:
        invalidate_statcache(cloud, walk.tenant_keys)
        report.statcache_invalidated = True

    # --- sweep: plan entries, replicas, containers, objects ------------
    # Cut short in this order, a sweep leaves unplanned replicas (repair
    # deletes them) or bare dead primaries (the next GC takes them),
    # never a replica that revives a dead primary.  Keys that name
    # neither are scrub's.
    if plan is not None:
        report.plan_pruned = plan.prune(live)
        if report.plan_pruned:
            plan.save(cloud)
    for key in [*dead_replicas, *dead_containers, *dead_objects]:
        cloud.delete(key)
    report.deleted_replicas = len(dead_replicas)
    report.deleted_containers = len(dead_containers)
    report.deleted_objects = len(dead_objects)
    if report.statcache_invalidated:
        # An interrupted session's journal vouches for uploads no
        # manifest references, which this sweep just took; last segment
        # first, so a cut-short sweep leaves each journal a prefix.
        for key in sorted(walk.keys(naming.JOURNAL_PREFIX), reverse=True):
            cloud.delete(key)
    return report
