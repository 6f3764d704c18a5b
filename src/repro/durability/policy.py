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

All three are read off GC's mark (:func:`repro.core.walk.mark_store`):
what keeps a container live is what makes losing it hurt.

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
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core import naming
from repro.durability.placement import (default_domains, replica_keys)
from repro.errors import ObjectNotFound, ReproError

__all__ = ["DurabilityPolicy", "ReplicationPlan"]


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

    def target_replicas(self, crit, domains: Sequence[str]) -> int:
        """Total copies (primary included) a container should have,
        from its :class:`~repro.core.walk.ContainerMark`."""
        signals = sum((
            crit.refcount >= self.refcount_threshold,
            crit.fan_in >= self.fanin_threshold,
            bool(crit.categories & self.critical_categories),
        ))
        target = self.base_replicas + (signals >= 1) + (signals == 3)
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
        """Inverse of :meth:`to_json`; any malformed document raises
        :class:`~repro.errors.ReproError`."""
        try:
            doc = json.loads(text)
            if doc.get("format") != cls.FORMAT:
                raise ReproError(f"unsupported replication plan format "
                                 f"{doc.get('format')!r}")
            return cls(domains=doc["domains"],
                       targets={int(cid): int(r)
                                for cid, r in doc["targets"].items()})
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ReproError(f"malformed plan: {exc!r}") from exc

    def save(self, cloud) -> None:
        """Persist (or, once empty, remove) the plan blob."""
        if self.targets:
            cloud.put(naming.DURABILITY_PLAN_KEY,
                      self.to_json().encode("utf-8"))
        else:
            cloud.delete(naming.DURABILITY_PLAN_KEY)

    @classmethod
    def load(cls, cloud,
             strict: bool = False) -> Optional["ReplicationPlan"]:
        """The persisted plan; ``None`` when the store has none, or when
        it is unreadable unless ``strict`` (a pass that deletes replicas
        must not read "plan unknown" as "every target is one copy")."""
        try:
            return cls.from_json(cloud.get(naming.DURABILITY_PLAN_KEY))
        except ObjectNotFound:
            return None
        except ReproError:
            if strict:
                raise
            return None
