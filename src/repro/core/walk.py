"""The one store walk: every manifest, and what the live ones hold.

GC, durability planning, scrub, retention and ``repro ls`` all read
manifests through :class:`StoreWalk`, which lists the root manifests and
the tenant subtree once each.  :func:`mark_store` is the one pass that
aggregates manifest refs per container: GC's liveness and durability's
criticality are one computation — a container's dedup reference count
is why it must not be swept and why losing it hurts (FASTEN).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core import naming
from repro.core.recipe import Manifest
from repro.errors import ReproError, RestoreError

__all__ = ["ManifestRecord", "StoreWalk", "ContainerMark", "StoreMark",
           "mark_store"]


@dataclass(frozen=True)
class ManifestRecord:
    """One manifest key: raw key, tenant namespace (``None`` at the
    root) and session id (``None`` when the key names none)."""

    key: str
    namespace: Optional[str]
    session_id: Optional[int]


class StoreWalk:
    """One pass over a store's manifests, root and tenants alike."""

    def __init__(self, cloud) -> None:
        self.cloud = cloud
        #: Every tenant-namespace key (the tenant subtree, listed once).
        self.tenant_keys = naming.tenant_keys(cloud)
        #: Every manifest key, root first, each in listing order.
        self.manifests = [
            ManifestRecord(key, naming.split_tenant_key(key)[0],
                           naming.session_id_of(key))
            for key in self.keys(naming.MANIFEST_PREFIX)]

    def keys(self, prefix: str) -> List[str]:
        """Raw keys under ``prefix`` at the root and in every tenant."""
        return list(self.cloud.list(prefix)) + [
            key for key in self.tenant_keys
            if naming.split_tenant_key(key)[1].startswith(prefix)]

    def load(self, record: ManifestRecord) -> Manifest:
        """Fetch and parse one manifest.  Any failure — missing,
        malformed, a key that names no session — raises ReproError."""
        if record.session_id is None:
            raise RestoreError("key names no session")
        return Manifest.from_json(self.cloud.get(record.key))


@dataclass
class ContainerMark:
    """What the live manifests hold in one container."""

    #: Bytes of the distinct extents referenced (delta extents count
    #: their stored blob; padding and framing excluded).
    live_bytes: int = 0
    #: Extent references, delta bases included.
    refcount: int = 0
    #: Raw keys of the manifests referencing the container.
    manifests: Set[str] = field(default_factory=set)
    #: Application categories of the referencing recipes.
    categories: Set[str] = field(default_factory=set)

    @property
    def fan_in(self) -> int:
        """Number of distinct manifests referencing the container."""
        return len(self.manifests)


@dataclass
class StoreMark:
    """The outcome of :func:`mark_store`: per-container marks, the raw
    keys of live standalone objects, and why the mark may be incomplete
    (an unreadable live manifest, a retained session without one)."""

    containers: Dict[int, ContainerMark] = field(default_factory=dict)
    objects: Set[str] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)
    #: Tenant manifests that contributed marks.
    tenant_manifests: int = 0


def mark_store(walk: StoreWalk,
               retain: Optional[Set[int]] = None) -> StoreMark:
    """Mark everything the live manifests reference.

    Tenant manifests are always live; root sessions are live when in
    ``retain`` (``None``: all of them).  Refs are walked *including
    nested delta bases*: a base stays live while any live delta
    rebuilds against it.
    """
    marked = StoreMark()
    seen: Set[int] = set()
    extents: Set[tuple] = set()
    for record in walk.manifests:
        root = record.namespace is None
        if root and retain is not None:
            if record.session_id is None:
                marked.problems.append(f"{record.key} names no session")
                continue
            if record.session_id not in retain:
                continue
            seen.add(record.session_id)
        try:
            manifest = walk.load(record)
        except ReproError as exc:
            marked.problems.append(
                f"{'retained' if root else 'tenant'} manifest "
                f"{record.key} unreadable: {exc}")
            continue
        marked.tenant_manifests += not root
        for entry in manifest:
            for ref in entry.refs:
                while ref is not None:
                    if not ref.in_container:
                        marked.objects.add(naming.tenant_key(
                            record.namespace, ref.object_key))
                    else:
                        mark = marked.containers.setdefault(
                            ref.container_id, ContainerMark())
                        mark.refcount += 1
                        mark.manifests.add(record.key)
                        mark.categories.add(entry.category)
                        if (ref.container_id, ref.offset) not in extents:
                            extents.add((ref.container_id, ref.offset))
                            mark.live_bytes += ref.cloud_length
                    ref = ref.delta_base
    if retain is not None:
        marked.problems.extend(f"retained session {sid} has no manifest"
                               for sid in sorted(retain - seen))
    return marked
