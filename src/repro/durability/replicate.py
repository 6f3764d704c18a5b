"""Replication pass: bring the store up to its durability targets.

The replicator is idempotent and crash-safe: it computes criticality
from live manifests, derives each container's target copy count from
the :class:`~repro.durability.policy.DurabilityPolicy`, uploads only
the replica copies that are missing (reading from the primary or, when
the primary is already gone, from any surviving replica), and persists
the resulting :class:`~repro.durability.policy.ReplicationPlan` last —
so a plan never promises copies that were not yet attempted.  Re-running
after a crash simply tops up whatever is left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.container.format import ContainerReader
from repro.core import naming
from repro.durability.placement import default_domains, replica_keys
from repro.durability.policy import (DurabilityPolicy, ReplicationPlan,
                                     collect_criticality)
from repro.errors import ContainerFormatError, ReproError
from repro.obs.tracer import NOOP_TRACER

__all__ = ["ReplicationReport", "replicate_cloud"]


@dataclass
class ReplicationReport:
    """Outcome of one replication pass."""

    #: Live containers considered (referenced by any live manifest).
    containers_considered: int = 0
    #: Containers whose target is more than one copy.
    containers_replicated: int = 0
    #: Replica objects uploaded by this pass.
    replicas_written: int = 0
    #: Replica objects already in place and left untouched.
    replicas_existing: int = 0
    #: Bytes of replica payload uploaded.
    replica_bytes: int = 0
    #: container_id -> planned total copies (the persisted plan).
    targets: Dict[int, int] = field(default_factory=dict)
    #: Containers that could not be replicated (no readable copy).
    problems: List[str] = field(default_factory=list)


def _read_container(cloud, key: str, container_id: int):
    """Validated container bytes at ``key``, or ``None``."""
    try:
        blob = cloud.get(key)
        reader = ContainerReader(blob)
    except (ReproError, ContainerFormatError):
        return None
    return blob if reader.container_id == container_id else None


def replicate_cloud(cloud,
                    policy: Optional[DurabilityPolicy] = None,
                    domains: Optional[Sequence[str]] = None,
                    tracer=None) -> ReplicationReport:
    """Replicate live containers per ``policy`` and persist the plan.

    ``domains`` defaults to the persisted plan's domain list (so repeat
    passes keep placement stable) or, on a fresh store, to
    :func:`~repro.durability.placement.default_domains`.
    """
    tracer = tracer if tracer is not None else NOOP_TRACER
    policy = policy if policy is not None else DurabilityPolicy()
    if domains is None:
        prior = ReplicationPlan.load(cloud)
        domains = (prior.domains if prior is not None
                   else default_domains())
    report = ReplicationReport()
    with tracer.span("durability.replicate", domains=len(domains)):
        crit = collect_criticality(cloud)
        report.containers_considered = len(crit)
        for container_id in sorted(crit):
            target = policy.target_replicas(crit[container_id], domains)
            if target <= 1:
                continue
            report.targets[container_id] = target
            report.containers_replicated += 1
            blob = _read_container(
                cloud, naming.container_key(container_id), container_id)
            keys = replica_keys(container_id, domains, target)
            if blob is None:
                # Primary unreadable: replicate from a surviving copy
                # (repair promotes it back to primary separately).
                for key in keys:
                    blob = _read_container(cloud, key, container_id)
                    if blob is not None:
                        break
            if blob is None:
                report.problems.append(
                    f"container {container_id}: no readable copy to "
                    f"replicate from")
                continue
            for key in keys:
                if cloud.exists(key):
                    report.replicas_existing += 1
                    continue
                cloud.put(key, blob)
                report.replicas_written += 1
                report.replica_bytes += len(blob)
        plan = ReplicationPlan(domains=domains, targets=report.targets)
        plan.save(cloud)
        if tracer.enabled:
            tracer.metrics.counter("replicas_written_total").inc(
                report.replicas_written)
            tracer.metrics.counter("replica_bytes_total").inc(
                report.replica_bytes)
    return report
