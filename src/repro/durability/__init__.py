"""Durability tiering: balance replication against deduplication.

Deduplication stores each chunk exactly once, which is precisely what
makes it fragile: one lost container can break every recipe that
references it, across thousands of sessions and — in a fleet — across
clients.  This package spends a controlled amount of the storage that
dedup saved to buy that risk back down:

* :mod:`~repro.durability.policy` — criticality signals (refcount over
  live manifests, manifest fan-in, application class, all read off
  GC's mark) → per-container replication factor, persisted as a
  :class:`ReplicationPlan`;
* :mod:`~repro.durability.placement` — deterministic assignment of
  copies to named fault domains (``replicas/<domain>/containers/<id>``),
  plus the :func:`kill_domain` chaos failure model;
* :mod:`~repro.durability.replicate` — the one survey of a
  container's copies (``CopySurvey``) and the idempotent passes on it:
  :func:`replicate_cloud` (new plan) and :func:`repair_cloud` (persisted
  plan) fill bad slots and remove unplanned replicas.

Scrub reports the same survey as structured findings
(:class:`repro.core.scrub.ScrubFinding`), restore fails over to replica
copies (:class:`repro.core.restore.RestoreClient`), and GC sweeps
replicas with their primaries (:func:`repro.core.gc.collect_garbage`).
See ``docs/DURABILITY.md``.
"""

from repro.durability.placement import (
    DEFAULT_DOMAIN_COUNT,
    default_domains,
    kill_domain,
    primary_domain,
    replica_domains,
    replica_keys,
)
from repro.durability.policy import DurabilityPolicy, ReplicationPlan
from repro.durability.replicate import (DurabilityReport, repair_cloud,
                                       replicate_cloud)

__all__ = [
    "DEFAULT_DOMAIN_COUNT",
    "default_domains",
    "kill_domain",
    "primary_domain",
    "replica_domains",
    "replica_keys",
    "DurabilityPolicy",
    "ReplicationPlan",
    "DurabilityReport",
    "repair_cloud",
    "replicate_cloud",
]
