"""The copies of a container: one survey, and the passes that act on it.

A container's *planned slots* are its primary and the replica keys the
persisted :class:`~repro.durability.policy.ReplicationPlan` names; any
other replica key of its id is *unplanned*.  :class:`CopySurvey` judges
the copies (parse + CRC + id match) found by one LIST of ``replicas/``.
:func:`replicate_cloud` and :func:`repair_cloud` fill bad planned slots
from a valid copy, then delete the unplanned keys once the primary is
valid or no copy at all is, so no pass deletes the last valid copy.
Scrub (:mod:`repro.core.scrub`) reports the same survey.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.container.format import ContainerReader
from repro.core import naming
from repro.core.walk import StoreWalk, mark_store
from repro.durability.placement import default_domains
from repro.durability.policy import DurabilityPolicy, ReplicationPlan
from repro.errors import ContainerError, ObjectNotFound
from repro.obs.tracer import NOOP_TRACER

__all__ = ["CopySurvey", "DurabilityReport", "list_replicas",
           "repair_cloud", "replicate_cloud"]


@dataclass
class DurabilityReport:
    """Outcome of one replicate or repair pass."""

    #: Containers examined: live (replicate) or planned (repair).
    containers_checked: int = 0
    #: container_id -> planned total copies (the persisted plan).
    targets: Dict[int, int] = field(default_factory=dict)
    #: Replica slots filled.
    replicas_written: int = 0
    #: Replica keys deleted because the plan does not name them.
    replicas_removed: int = 0
    #: Primary slots refilled from a surviving replica.
    primaries_restored: int = 0
    #: Bytes uploaded into primary and replica slots.
    bytes_copied: int = 0
    #: Planned containers with no valid copy left (data loss).
    problems: List[str] = field(default_factory=list)

    @property
    def repaired(self) -> int:
        """Copies written by this pass."""
        return self.primaries_restored + self.replicas_written

    @property
    def ok(self) -> bool:
        """True when every planned container has a valid copy."""
        return not self.problems


def list_replicas(cloud) -> Tuple[Dict[int, List[str]], List[str]]:
    """One LIST of ``replicas/``: the keys by container id, and the
    keys that name no container."""
    by_id: Dict[int, List[str]] = {}
    junk = []
    for key in cloud.list(naming.REPLICA_PREFIX):
        parsed = naming.parse_replica_key(key)
        if parsed is None:
            junk.append(key)
        else:
            by_id.setdefault(parsed[1], []).append(key)
    return by_id, junk


class CopySurvey:
    """Which copies of one container exist and which are good.

    A replica missing from ``listed`` holds no copy (no GET).  With
    ``validate`` every other copy is read at once; without, a listed
    copy is presumed good until :meth:`judge` reads it, except the
    primary of a container with unplanned keys: removing them needs its
    verdict.  The caller may pass that as ``primary_valid``."""

    def __init__(self, cloud, container_id: int,
                 replica_keys: Sequence[str], listed: Iterable[str],
                 validate: bool = True,
                 primary_valid: Optional[bool] = None) -> None:
        self.cloud = cloud
        self.container_id = container_id
        self.primary = naming.container_key(container_id)
        self.slots = [self.primary, *replica_keys]
        self.listed = set(listed)
        self.unplanned = sorted(self.listed - set(replica_keys))
        #: key -> verdict of every copy judged so far.
        self.valid: Dict[str, bool] = {}
        #: The first valid copy read (the one to copy from), and its key.
        self.source: Optional[bytes] = None
        self.source_key: Optional[str] = None
        if primary_valid is not None:
            self.valid[self.primary] = primary_valid
        for key in (*self.slots, *self.unplanned):
            if key != self.primary and key not in self.listed:
                self.valid[key] = False
            elif validate or (key == self.primary and self.unplanned):
                self.judge(key)

    def judge(self, key: str) -> bool:
        """Whether ``key`` holds a valid copy, read if not yet judged;
        a cloud error other than a missing key is no verdict: it raises."""
        if key not in self.valid:
            try:
                blob = self.cloud.get(key)
                ok = ContainerReader(blob).container_id == self.container_id
            except (ObjectNotFound, ContainerError):
                ok = False
            self.valid[key] = ok
            if ok and self.source is None:
                self.source, self.source_key = blob, key
        return self.valid[key]

    def good(self, key: str) -> bool:
        """Whether ``key`` holds a good copy: its verdict once judged,
        else what the LIST says (listed, so presumed good)."""
        return self.valid.get(key, True)

    def bad_slots(self) -> List[str]:
        """Planned slots that hold no good copy."""
        return [key for key in self.slots if not self.good(key)]

    def find_source(self) -> Optional[bytes]:
        """Read copies, planned slots first, until one is valid; return
        its bytes, or ``None`` when every copy was read and none is."""
        for key in (*self.slots, *self.unplanned):
            if self.source is None:
                self.judge(key)
        return self.source


def _reconcile(cloud, plan: ReplicationPlan, report: DurabilityReport,
               validate: bool, live=None) -> List[str]:
    """Fill every bad planned slot of every planned or replicated
    container from a valid copy; return the replica keys that may go.
    With ``live``, every replica of a container outside it goes
    unread, as garbage collection would delete it."""
    by_id, doomed = list_replicas(cloud)
    for container_id in sorted(set(plan.targets) | set(by_id)):
        if live is not None and container_id not in live:
            doomed += by_id[container_id]
            continue
        survey = CopySurvey(cloud, container_id,
                            plan.replica_keys(container_id),
                            by_id.get(container_id, ()), validate)
        if survey.bad_slots():
            blob = survey.find_source()
            if blob is None and container_id in plan:
                report.problems.append(
                    f"container {container_id}: no valid copy in any "
                    f"fault domain")
            for key in survey.bad_slots() if blob is not None else ():
                cloud.put(key, blob)
                survey.valid[key] = True
                report.bytes_copied += len(blob)
                if key == survey.primary:
                    report.primaries_restored += 1
                else:
                    report.replicas_written += 1
        # Never the last valid copy: the primary (judged, refilled if
        # bad) holds one, or find_source read every copy and none is.
        doomed += survey.unplanned
    return doomed


def _remove(cloud, doomed: List[str], report: DurabilityReport,
            tracer) -> None:
    """Delete ``doomed``, then publish the pass's counters."""
    for key in doomed:
        if cloud.delete(key):
            report.replicas_removed += 1
    if tracer.enabled:
        for name in ("replicas_written", "replicas_removed",
                     "primaries_restored", "bytes_copied"):
            tracer.metrics.counter(f"durability_{name}_total").inc(
                getattr(report, name))


def replicate_cloud(cloud,
                    policy: Optional[DurabilityPolicy] = None,
                    domains: Optional[Sequence[str]] = None,
                    tracer=None) -> DurabilityReport:
    """Replicate live containers per ``policy`` and persist the plan.

    ``domains`` defaults to the persisted plan's (placement stays
    stable) or, on a store with no plan, to ``default_domains()``; an
    unreadable plan raises.  Presence comes from the LIST: an existing
    replica is not read.  The replicas of a container no manifest
    references are deleted, not promoted."""
    tracer = tracer if tracer is not None else NOOP_TRACER
    policy = policy if policy is not None else DurabilityPolicy()
    if domains is None:
        prior = ReplicationPlan.load(cloud, strict=True)
        domains = (prior.domains if prior is not None
                   else default_domains())
    with tracer.span("durability.replicate", domains=len(domains)):
        # Every manifest in the store counts, tenants included; an
        # unreadable one is scrub's to report, not the planner's, but
        # then the mark may miss live containers and none counts dead.
        marked = mark_store(StoreWalk(cloud))
        crit = marked.containers
        plan = ReplicationPlan(domains, {
            cid: policy.target_replicas(mark, domains)
            for cid, mark in crit.items()})
        report = DurabilityReport(containers_checked=len(crit),
                                  targets=dict(plan.targets))
        doomed = _reconcile(cloud, plan, report, validate=False,
                            live=None if marked.problems else crit)
        plan.save(cloud)
        _remove(cloud, doomed, report, tracer)
    return report


def repair_cloud(cloud, tracer=None) -> DurabilityReport:
    """Rebuild every planned copy from a valid survivor and remove the
    replicas the persisted plan does not name.  With no plan every
    target is one copy: a lost primary is promoted from any valid
    replica, and then the replicas go.  An unreadable plan raises
    before any copy is read or deleted."""
    tracer = tracer if tracer is not None else NOOP_TRACER
    plan = ReplicationPlan.load(cloud, strict=True) or ReplicationPlan()
    report = DurabilityReport(containers_checked=len(plan),
                              targets=dict(plan.targets))
    with tracer.span("durability.repair", containers=len(plan)):
        _remove(cloud, _reconcile(cloud, plan, report, validate=True),
                report, tracer)
    return report
