"""Scrub-driven repair: rebuild every planned copy from any survivor.

Where the replicator *extends* durability (new containers, raised
targets), repair *restores* it after damage.  For every container in
the persisted plan it gathers the surviving copies — the primary plus
each planned replica, each one validated (parse + CRC + id match, so a
corrupt survivor is never propagated) — then:

* **promotes** a replica to primary when the primary is missing or
  corrupt (restore fails over to replicas on its own, but a promoted
  primary ends the degradation instead of papering over it);
* **re-replicates** into every planned replica slot that is missing or
  corrupt, from any good copy;
* reports a container **unrepairable** when no copy survives — data
  loss that replication at the planned factor could not absorb.

The loop is driven by the same invariants scrub checks
(:class:`~repro.core.scrub.ScrubFinding` kinds ``missing_primary`` /
``corrupt_primary`` / ``missing_replica`` / ``corrupt_replica`` /
``under_replicated``), so ``scrub → repair → scrub`` converges to a
clean store whenever one copy of everything survived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core import naming
from repro.durability.policy import ReplicationPlan
from repro.durability.replicate import _read_container
from repro.obs.tracer import NOOP_TRACER

__all__ = ["RepairReport", "repair_cloud"]


@dataclass
class RepairReport:
    """Outcome of one repair pass."""

    containers_checked: int = 0
    #: Replicas promoted back to the primary key.
    primaries_restored: int = 0
    #: Replica slots refilled from a surviving copy.
    replicas_restored: int = 0
    #: Bytes uploaded by promotions + re-replications (repair traffic).
    bytes_copied: int = 0
    #: Containers with no surviving copy (permanent data loss).
    unrepairable: List[str] = field(default_factory=list)

    @property
    def repaired(self) -> int:
        """Total copies rebuilt by this pass."""
        return self.primaries_restored + self.replicas_restored

    @property
    def ok(self) -> bool:
        """True when every planned container has all copies again."""
        return not self.unrepairable


def repair_cloud(cloud, tracer=None) -> RepairReport:
    """Restore full replication for every container in the plan
    persisted in the store.

    With no plan there is nothing to repair and the report is empty.
    Each rebuilt copy is uploaded at its deterministic key, so a
    subsequent scrub finds the store fully replicated.
    """
    tracer = tracer if tracer is not None else NOOP_TRACER
    report = RepairReport()
    plan = ReplicationPlan.load(cloud)
    if plan is None:
        return report
    with tracer.span("durability.repair", containers=len(plan)):
        for container_id in sorted(plan.targets):
            report.containers_checked += 1
            primary_key = naming.container_key(container_id)
            good = _read_container(cloud, primary_key, container_id)
            bad_slots = []
            if good is None:
                bad_slots.append(primary_key)
            survivor = good
            for key in plan.replica_keys(container_id):
                blob = _read_container(cloud, key, container_id)
                if blob is None:
                    bad_slots.append(key)
                elif survivor is None:
                    survivor = blob
            if survivor is None:
                report.unrepairable.append(
                    f"container {container_id}: no surviving copy in "
                    f"any fault domain")
                continue
            for key in bad_slots:
                cloud.put(key, survivor)
                report.bytes_copied += len(survivor)
                if key == primary_key:
                    report.primaries_restored += 1
                else:
                    report.replicas_restored += 1
        if tracer.enabled:
            tracer.metrics.counter("repair_promotions_total").inc(
                report.primaries_restored)
            tracer.metrics.counter("repair_copies_total").inc(
                report.repaired)
            tracer.metrics.counter("repair_bytes_total").inc(
                report.bytes_copied)
    return report
