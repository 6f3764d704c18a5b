"""Criticality-weighted durability tiers and the persisted plan.

Deduplication concentrates risk: a chunk stored once may be the only
copy backing thousands of recipes, so the cost of losing its container
grows with how referenced it is.  The policy turns three observable
criticality signals into a per-container replication factor:

* **refcount** — extent references from live manifests into the
  container (a hot shared container breaks many recipes at once);
* **manifest fan-in** — how many distinct manifests (sessions and, in a
  fleet, clients) reference the container — breadth of the blast
  radius, independent of depth;
* **application class** — containers holding dynamic, user-authored
  content (the hardest data to recreate) rank above re-downloadable
  compressed media.

Tiers: every live container gets at least ``base_replicas`` copies; one
extra copy when any signal crosses its threshold; a further copy when
all three do — capped by ``max_replicas`` and by the number of fault
domains (each copy needs its own domain).

The resulting :class:`ReplicationPlan` (domains + per-container target)
is persisted at ``durability/plan.json`` so scrub can detect
under-replication, repair knows what to rebuild, restore knows where to
fail over, and GC can prune entries with their containers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core import naming
from repro.core.recipe import Manifest
from repro.durability.placement import (default_domains, replica_keys)
from repro.errors import ReproError

__all__ = ["ContainerCriticality", "DurabilityPolicy", "ReplicationPlan",
           "collect_criticality"]


@dataclass
class ContainerCriticality:
    """Liveness-derived criticality signals for one container."""

    container_id: int
    #: Extent references from live manifests (delta bases included).
    refcount: int = 0
    #: Distinct manifest keys referencing the container.
    manifests: Set[str] = field(default_factory=set)
    #: Application categories of the referencing recipes.
    categories: Set[str] = field(default_factory=set)

    @property
    def fan_in(self) -> int:
        """Number of distinct manifests referencing the container."""
        return len(self.manifests)


def collect_criticality(cloud) -> Dict[int, ContainerCriticality]:
    """Walk live manifests and aggregate per-container criticality.

    Every manifest in the store counts, tenant namespaces included
    (:func:`repro.core.naming.namespaced_keys`) — in a fleet, a shared
    container's criticality is the sum over every client that
    references it.  Unreadable manifests are skipped here; scrub, not
    the durability planner, is the integrity authority.
    """
    stats: Dict[int, ContainerCriticality] = {}
    for key in naming.namespaced_keys(cloud, naming.MANIFEST_PREFIX):
        try:
            manifest = Manifest.from_json(cloud.get(key))
        except (ReproError, ValueError, KeyError):
            continue
        for entry in manifest:
            for ref in entry.refs:
                while ref is not None:
                    if ref.in_container:
                        crit = stats.get(ref.container_id)
                        if crit is None:
                            crit = stats[ref.container_id] = \
                                ContainerCriticality(ref.container_id)
                        crit.refcount += 1
                        crit.manifests.add(key)
                        crit.categories.add(entry.category)
                    ref = ref.delta_base
    return stats


@dataclass(frozen=True)
class DurabilityPolicy:
    """Maps container criticality to a target replication factor."""

    #: Copies every live container gets (1 = primary only).
    base_replicas: int = 1
    #: Ceiling on copies per container (further capped by the domain
    #: count at planning time).
    max_replicas: int = 3
    #: Refcount at which a container counts as highly referenced.
    refcount_threshold: int = 8
    #: Distinct-manifest fan-in at which it counts as widely shared.
    fanin_threshold: int = 2
    #: Application categories whose data is considered irreplaceable.
    critical_categories: frozenset = frozenset({"dynamic_uncompressed"})

    def target_replicas(self, crit: ContainerCriticality,
                        domains: Sequence[str]) -> int:
        """Total copies (primary included) ``crit`` should have."""
        signals = sum((
            crit.refcount >= self.refcount_threshold,
            crit.fan_in >= self.fanin_threshold,
            bool(crit.categories & self.critical_categories),
        ))
        target = self.base_replicas
        if signals >= 1:
            target += 1
        if signals == 3:
            target += 1
        return max(1, min(target, self.max_replicas, len(domains)))


class ReplicationPlan:
    """Durable record of the fleet's replication targets.

    Holds the fault-domain list and each replicated container's target
    copy count; replica *keys* are recomputed from deterministic
    placement, so the plan stays small and cannot disagree with it.
    Containers absent from the plan have a target of 1 (primary only).
    """

    FORMAT = 1

    def __init__(self, domains: Sequence[str] = (),
                 targets: Optional[Dict[int, int]] = None) -> None:
        self.domains: Tuple[str, ...] = (tuple(domains)
                                         or default_domains())
        #: container_id -> total copies (>= 2; 1-copy entries are not
        #: recorded).
        self.targets: Dict[int, int] = {
            cid: r for cid, r in (targets or {}).items() if r > 1}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.targets)

    def __contains__(self, container_id: int) -> bool:
        return container_id in self.targets

    def target(self, container_id: int) -> int:
        """Planned total copies for ``container_id`` (1 when unplanned)."""
        return self.targets.get(container_id, 1)

    def replica_keys(self, container_id: int) -> list:
        """Planned replica keys for ``container_id`` (placement order)."""
        return replica_keys(container_id, self.domains,
                            self.target(container_id))

    def prune(self, live_containers) -> int:
        """Drop entries for containers not in ``live_containers``;
        returns how many were removed (GC calls this with its mark
        set so plan entries die with their containers)."""
        dead = [cid for cid in self.targets if cid not in live_containers]
        for cid in dead:
            del self.targets[cid]
        return len(dead)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise to a JSON document string."""
        return json.dumps({
            "format": self.FORMAT,
            "domains": list(self.domains),
            "targets": {str(cid): r
                        for cid, r in sorted(self.targets.items())},
        }, separators=(",", ":"))

    @classmethod
    def from_json(cls, text) -> "ReplicationPlan":
        """Inverse of :meth:`to_json`."""
        doc = json.loads(text)
        if doc.get("format") != cls.FORMAT:
            raise ReproError(
                f"unsupported replication plan format "
                f"{doc.get('format')!r}")
        return cls(domains=doc["domains"],
                   targets={int(cid): int(r)
                            for cid, r in doc["targets"].items()})

    def save(self, cloud) -> None:
        """Persist (or, once empty, remove) the plan blob."""
        if self.targets:
            cloud.put(naming.DURABILITY_PLAN_KEY,
                      self.to_json().encode("utf-8"))
        else:
            cloud.delete(naming.DURABILITY_PLAN_KEY)

    @classmethod
    def load(cls, cloud) -> Optional["ReplicationPlan"]:
        """The persisted plan, or ``None`` when the store has none (or
        the blob is unreadable — callers treat that as no plan and a
        fresh replication pass rewrites it)."""
        try:
            blob = cloud.get(naming.DURABILITY_PLAN_KEY)
        except ReproError:
            return None
        try:
            return cls.from_json(blob)
        except (ReproError, ValueError, KeyError):
            return None
