"""Deletion support: mark-and-sweep garbage collection of cloud state.

"Supporting deletion of files requires an additional process in the
background" (Sec. III-F).  When backup sessions are retired, containers
and standalone objects may become partially or fully dead.  The collector
walks the *retained* manifests (the authoritative liveness roots — no
reliance on client-side refcounts, so it is crash-safe), then:

* deletes containers, chunk objects and file objects referenced by no
  retained manifest;
* deletes manifests of dropped sessions;
* sweeps durability replicas *with* their containers: a replica dies
  exactly when its container leaves the live set, never before — so a
  replica is never orphaned by GC, and the last surviving copy of a
  still-referenced container is never collected (liveness, not copy
  count, decides).  Plan entries of collected containers are pruned
  from the persisted :class:`~repro.durability.policy.ReplicationPlan`;
* reports per-container utilisation so operators can see fragmentation
  (rewriting live tails of cold containers is reported, not performed —
  it would require manifest rewrites, which the paper does not do
  either).

Retention (which sessions to drop) is decided from the *root*
manifests only, but liveness is fleet-wide: manifests in tenant
namespaces (``clients/<ns>/manifests/``) mark their containers and
shared chunk objects live, so a GC run against a shared fleet backend
can never collect data a tenant still references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.core import naming
from repro.core.filecache import invalidate_statcache
from repro.core.recipe import Manifest
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
    #: container_id -> live bytes referenced by retained manifests
    #: (fragmentation visibility; padding/framing excluded).  Delta
    #: extents count their *stored* (delta blob) bytes, and base extents
    #: reached only through delta chains count too — a delta base is
    #: live as long as any retained delta references it.
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
    """``{session_id: created_ts}`` for every manifest ``cloud`` sees.

    This is the retention selection helper: the timestamp-based
    policies (:class:`~repro.core.retention.RetainLastN`,
    :class:`~repro.core.retention.RetainMaxAge`) select their retained
    set from this catalog.  Called through a
    :class:`~repro.cloud.NamespacedBackend` view it catalogues that
    tenant's private sessions.  An unreadable manifest raises
    :class:`~repro.errors.ReproError` — a session whose age cannot be
    proven must never be silently classified as droppable.
    """
    catalog: Dict[int, float] = {}
    for key in cloud.list(naming.MANIFEST_PREFIX):
        session_id = naming.session_id_of(key)
        if session_id is None:
            continue
        try:
            manifest = Manifest.from_json(cloud.get(key))
        except (ReproError, ValueError, KeyError) as exc:
            raise ReproError(
                f"manifest {key} unreadable: {exc}") from exc
        catalog[session_id] = manifest.created
    return catalog


def collect_garbage(cloud, retain_sessions: Iterable[int]) -> GCReport:
    """Drop all sessions except ``retain_sessions`` and sweep dead data.

    ``cloud`` needs ``list/get/delete``.  Returns a :class:`GCReport`.
    """
    retain = set(retain_sessions)
    report = GCReport(retained_sessions=sorted(retain))

    # --- mark: liveness roots from retained manifests -----------------
    # iter_refs walks every ref *including nested delta bases*, so a
    # base extent stays live while any retained delta references it,
    # even when no retained manifest references the base directly.
    live_containers: Set[int] = set()
    live_objects: Set[str] = set()
    seen_retained: Set[int] = set()
    for key in cloud.list(naming.MANIFEST_PREFIX):
        session_id = naming.session_id_of(key)
        if session_id is None:
            raise ValueError(f"unparseable manifest key {key!r}")
        if session_id not in retain:
            continue
        seen_retained.add(session_id)
        try:
            manifest = Manifest.from_json(cloud.get(key))
        except (ReproError, ValueError, KeyError) as exc:
            report.problems.append(
                f"retained manifest {key} unreadable: {exc}")
            continue
        live_containers |= manifest.referenced_containers()
        live_objects |= manifest.referenced_objects()
        for ref in manifest.iter_refs():
            if ref.in_container:
                report.container_live_bytes[ref.container_id] = (
                    report.container_live_bytes.get(ref.container_id, 0)
                    + ref.cloud_length)
    for session_id in sorted(retain - seen_retained):
        report.problems.append(
            f"retained session {session_id} has no manifest")

    # --- mark: fleet-wide liveness from tenant namespaces ---------------
    # Retention applies to root sessions only, but on a shared fleet
    # backend every tenant manifest pins its containers and shared
    # chunks live — an unreadable one makes the live sets
    # untrustworthy, so it blocks the sweep like a root manifest would.
    for key in cloud.list(naming.TENANT_PREFIX):
        if f"/{naming.MANIFEST_PREFIX}" not in key:
            continue
        try:
            manifest = Manifest.from_json(cloud.get(key))
        except (ReproError, ValueError, KeyError) as exc:
            report.problems.append(
                f"tenant manifest {key} unreadable: {exc}")
            continue
        report.tenant_manifests_marked += 1
        tenant = key.split(f"/{naming.MANIFEST_PREFIX}", 1)[0] + "/"
        live_containers |= manifest.referenced_containers()
        for obj_key in manifest.referenced_objects():
            if obj_key.startswith(naming.CHUNK_PREFIX):
                live_objects.add(obj_key)       # shared chunk pool
            else:
                live_objects.add(tenant + obj_key)

    # An incomplete mark phase means the live sets are untrustworthy;
    # sweeping on them could delete live data.  Refuse instead.
    if report.problems:
        report.live_containers = len(live_containers)
        return report

    # --- sweep: manifests of dropped sessions --------------------------
    for key in cloud.list(naming.MANIFEST_PREFIX):
        if naming.session_id_of(key) not in retain:
            cloud.delete(key)
            report.deleted_manifests += 1

    # --- sweep: containers ---------------------------------------------
    # A key that names no container is not GC's to judge (scrub
    # reports it); it must not wedge the sweep either.
    for key in cloud.list(naming.CONTAINER_PREFIX):
        container_id = naming.container_id_of(key)
        if container_id is not None \
                and container_id not in live_containers:
            cloud.delete(key)
            report.deleted_containers += 1
    report.live_containers = len(live_containers)

    # --- sweep: durability replicas with their containers ---------------
    # A replica's lifetime is its container's: live container -> every
    # copy is kept (even when it is the last survivor of a lost
    # primary); dead container -> all copies go with it.  Keys that do
    # not parse as replica keys are left for scrub to flag.
    for key in cloud.list(naming.REPLICA_PREFIX):
        parsed = naming.parse_replica_key(key)
        if parsed is not None and parsed[1] not in live_containers:
            cloud.delete(key)
            report.deleted_replicas += 1
    plan = ReplicationPlan.load(cloud)
    if plan is not None:
        report.plan_pruned = plan.prune(live_containers)
        if report.plan_pruned:
            plan.save(cloud)

    # --- sweep: standalone chunk/file/delta objects ---------------------
    for prefix in (naming.CHUNK_PREFIX, naming.FILE_PREFIX,
                   naming.DELTA_PREFIX):
        for key in cloud.list(prefix):
            if key not in live_objects:
                cloud.delete(key)
                report.deleted_objects += 1

    # --- sweep: tenant-private file/delta objects -----------------------
    # Chunk objects and containers are fleet-shared (a tenant view maps
    # them through verbatim), but whole-file and delta blobs live under
    # the tenant prefix.  When the service's retention drops a tenant
    # session, its file/delta objects become unreachable through any
    # manifest — sweep them here so per-job retention actually frees
    # space for file-granularity (JungleDisk-style) and delta jobs.
    # Live entries were recorded tenant-prefixed during the mark phase.
    _PRIVATE_SWEEP = (naming.FILE_PREFIX, naming.DELTA_PREFIX)
    for key in list(cloud.list(naming.TENANT_PREFIX)):
        rest = key[len(naming.TENANT_PREFIX):]
        _ns, _, sub = rest.partition("/")
        if any(sub.startswith(p) for p in _PRIVATE_SWEEP) \
                and key not in live_objects:
            cloud.delete(key)
            report.deleted_objects += 1

    # --- invalidate stat caches ----------------------------------------
    # Cached recipes may reference the extents just deleted, so any
    # sweep that removed data bumps the GC epoch: persisted blobs are
    # dropped here, resident client caches on their next epoch check.
    # Manifest-only deletions leave every extent in place, so caches
    # stay warm.
    if report.deleted_containers or report.deleted_objects:
        report.statcache_blobs_deleted = invalidate_statcache(cloud)
        report.statcache_blobs_deleted += _invalidate_tenant_statcaches(
            cloud)
        report.statcache_invalidated = True
    return report


def _invalidate_tenant_statcaches(cloud) -> int:
    """Drop every tenant's persisted stat cache and bump its epoch.

    The root :func:`~repro.core.filecache.invalidate_statcache` only
    touches the root ``statcache/`` subtree, but a sweep on a shared
    fleet backend deletes extents tenant caches may also reference —
    each tenant namespace gets the same treatment so its clients'
    resident caches invalidate on their next epoch check.  Returns the
    number of tenant blobs deleted.
    """
    deleted = 0
    namespaces = set()
    for key in list(cloud.list(naming.TENANT_PREFIX)):
        rest = key[len(naming.TENANT_PREFIX):]
        namespace, sep, sub = rest.partition("/")
        if not sep:
            continue
        # Every tenant gets an epoch bump — including ones with no
        # persisted blobs (stat cache off today, maybe on tomorrow):
        # the epoch is the proof-of-currency for *any* cached recipe.
        namespaces.add(namespace)
        if sub.startswith(naming.STATCACHE_PREFIX) \
                and sub != naming.STATCACHE_EPOCH_KEY:
            cloud.delete(key)
            deleted += 1
    for namespace in sorted(namespaces):
        epoch_key = (naming.TENANT_PREFIX + namespace + "/"
                     + naming.STATCACHE_EPOCH_KEY)
        try:
            epoch = int(cloud.get(epoch_key).decode("ascii"))
        except (ReproError, KeyError, ValueError, UnicodeDecodeError):
            epoch = 0
        cloud.put(epoch_key, str(epoch + 1).encode("ascii"))
    return deleted
