"""Cloud scrubbing: verify every stored byte without restoring.

"Is my cloud copy still good?", answered cheaply.  Scrub validates:

* every **container** parses, passes its CRC, and each described extent
  re-hashes to its descriptor fingerprint (the digest width selects the
  hash — :func:`repro.hashing.hash_for_digest_len` — as on restore);
* every **replica**, through the copy survey that replicate and repair
  act on (:class:`repro.durability.replicate.CopySurvey`), against the
  persisted plan: missing, corrupt, *under-replicated* or *orphaned*;
* every **manifest** parses, references only extents that exist
  (container descriptors or standalone objects), and — for standalone
  objects — the stored bytes re-hash to the recipe fingerprint.

One :class:`~repro.core.walk.StoreWalk` covers the tenant namespaces of
a shared fleet backend too.

Everything found is a :class:`ScrubFinding` (what repair and the CLI
exit code key off); integrity violations are also human-readable
``problems``.  *Repairable* findings mean the data is intact but
durability is degraded: refs into a lost or corrupt primary resolve
through a surviving replica, because restore fails over the same way.

Returns a :class:`ScrubReport`; nothing is modified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.container.format import ContainerReader
from repro.core import naming
from repro.core.recipe import ChunkRef
from repro.core.walk import StoreWalk
from repro.durability.policy import ReplicationPlan
from repro.durability.replicate import CopySurvey, list_replicas
from repro.errors import ReproError
from repro.hashing import hash_for_digest_len

__all__ = ["ScrubFinding", "ScrubReport", "scrub_cloud"]


@dataclass(frozen=True)
class ScrubFinding:
    """One actionable scrub observation.

    ``repairable`` distinguishes durability degradations (a surviving
    copy exists; ``repro repair`` can rebuild) from integrity problems
    (data corrupt or unrecoverable).
    """

    kind: str
    message: str
    repairable: bool = False


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    containers_checked: int = 0
    extents_verified: int = 0
    manifests_checked: int = 0
    refs_resolved: int = 0
    #: Standalone chunk/file objects whose content was re-hashed.
    objects_verified: int = 0
    #: Replica copies that parsed and matched their container id.
    replicas_checked: int = 0
    #: Human-readable integrity problems; a subset of ``findings``.
    problems: List[str] = field(default_factory=list)
    #: Every observation, problems and repairable degradations alike.
    findings: List[ScrubFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing at all was found."""
        return not self.findings

    def problem(self, kind: str, message: str) -> None:
        """Record an integrity problem (data corrupt/unrecoverable)."""
        self.problems.append(message)
        self.findings.append(ScrubFinding(kind, message))

    def degraded(self, kind: str, message: str) -> None:
        """Record a repairable durability degradation."""
        self.findings.append(ScrubFinding(kind, message, repairable=True))

    def summary_line(self) -> str:
        """One-line findings summary (the CLI prints this)."""
        if not self.findings:
            return "0 findings"
        kinds = Counter(f.kind for f in self.findings)
        detail = ", ".join(f"{n} {kind}"
                           for kind, n in sorted(kinds.items()))
        repairable = sum(f.repairable for f in self.findings)
        return (f"{len(self.findings)} findings "
                f"({len(self.problems)} problems, "
                f"{repairable} repairable): {detail}")


def scrub_cloud(cloud, verify_extents: bool = True) -> ScrubReport:
    """Validate all containers, replicas and manifests in ``cloud``."""
    report = ScrubReport()

    # --- containers ------------------------------------------------------
    # Besides per-extent verification, record every extent's location
    # and length so the manifest pass can resolve refs to actual extents
    # (not just to an existing container blob).
    extent_map: Dict[Tuple[int, int], int] = {}
    containers_present = set()
    #: Primaries that fail to parse: the survey decides if a copy lives.
    bad_primaries: Dict[str, ReproError] = {}
    for key in cloud.list(naming.CONTAINER_PREFIX):
        try:
            reader = ContainerReader(cloud.get(key))
        except ReproError as exc:
            bad_primaries[key] = exc
            continue
        report.containers_checked += 1
        containers_present.add(reader.container_id)
        for desc in reader.descriptors:
            extent_map[(reader.container_id, desc.offset)] = desc.length
            if not verify_extents:
                continue
            data = reader.extent(desc)
            hasher = hash_for_digest_len(len(desc.fingerprint))
            if hasher is not None:
                if hasher.hash(data) != desc.fingerprint:
                    report.problem(
                        "corrupt_extent",
                        f"{key}: extent fingerprint mismatch at "
                        f"offset {desc.offset}")
                    continue
                report.extents_verified += 1

    # --- durability: replicas against the persisted plan -----------------
    _scrub_replicas(cloud, report, extent_map, containers_present)
    for key, exc in bad_primaries.items():
        if naming.container_id_of(key) not in containers_present:
            report.problem("corrupt_primary", f"{key}: {exc}")

    walk = StoreWalk(cloud)
    object_keys = {key for prefix in (naming.CHUNK_PREFIX,
                                      naming.FILE_PREFIX)
                   for key in walk.keys(prefix)}

    # --- manifests ---------------------------------------------------------
    verified_objects: Dict[str, bool] = {}

    def check_object(ref: ChunkRef, raw_key: str, where: str) -> None:
        """Verify a standalone object's *content* (a corrupt object
        still "exists"), once per key: it must re-hash to the recipe
        fingerprint."""
        if not verify_extents:
            return
        cached = verified_objects.get(raw_key)
        if cached is not None:
            if not cached:
                report.problem(
                    "corrupt_object",
                    f"{where} references corrupt object {ref.object_key}")
            return
        data = cloud.get(raw_key)
        hasher = hash_for_digest_len(len(ref.fingerprint))
        ok = hasher is None or hasher.hash(data) == ref.fingerprint
        if ok:
            report.objects_verified += 1
        else:
            report.problem(
                "corrupt_object",
                f"{where}: object {ref.object_key} content does not "
                f"match its fingerprint")
        verified_objects[raw_key] = ok

    def check_ref(ref: ChunkRef, namespace: Optional[str],
                  where: str) -> None:
        if ref.in_container:
            if ref.container_id not in containers_present:
                report.problem(
                    "missing_primary",
                    f"{where} references missing container "
                    f"{ref.container_id}")
                return
            length = extent_map.get((ref.container_id, ref.offset))
            if length is None:
                report.problem(
                    "dangling_ref",
                    f"{where}: no extent at container "
                    f"{ref.container_id} offset {ref.offset}")
                return
            if length != ref.length:
                report.problem(
                    "dangling_ref",
                    f"{where}: extent length mismatch at container "
                    f"{ref.container_id} offset {ref.offset} "
                    f"({length} != {ref.length})")
                return
        else:
            raw_key = naming.tenant_key(namespace, ref.object_key)
            if raw_key not in object_keys:
                report.problem(
                    "missing_object",
                    f"{where} references missing object "
                    f"{ref.object_key}")
                return
            check_object(ref, raw_key, where)
        report.refs_resolved += 1

    for record in walk.manifests:
        key = record.key
        try:
            manifest = walk.load(record)
        except ReproError as exc:
            report.problem("corrupt_manifest", f"{key}: {exc}")
            continue
        report.manifests_checked += 1
        for entry in manifest:
            where = f"{key}: {entry.path}"
            for ref in entry.refs:
                check_ref(ref, record.namespace, where)

    return report


def _scrub_replicas(cloud, report: ScrubReport,
                    extent_map: Dict[Tuple[int, int], int],
                    containers_present: Set[int]) -> None:
    """Report the copy survey of every planned or replicated container;
    a valid replica of a bad primary registers its extents and is a
    repairable ``missing_primary``.  An unreadable plan is a
    ``corrupt_plan`` problem, and then no copy is judged (restore then
    fails over to none)."""
    try:
        plan = ReplicationPlan.load(cloud, strict=True) or ReplicationPlan()
    except ReproError as exc:
        report.problem("corrupt_plan", f"{naming.DURABILITY_PLAN_KEY}: {exc}")
        return
    by_id, junk = list_replicas(cloud)
    for container_id in sorted(set(plan.targets) | set(by_id)):
        primary_ok = container_id in containers_present
        survey = CopySurvey(cloud, container_id,
                            plan.replica_keys(container_id),
                            by_id.get(container_id, ()),
                            primary_valid=primary_ok)
        report.replicas_checked += sum(map(survey.good, survey.listed))
        for key in survey.slots[1:]:
            if not survey.good(key):
                kind = "corrupt" if key in survey.listed else "missing"
                report.degraded(f"{kind}_replica", f"{key}: replica "
                                f"{kind} (container {container_id})")
        if survey.source is not None and not primary_ok:
            containers_present.add(container_id)
            for desc in ContainerReader(survey.source).descriptors:
                extent_map[(container_id, desc.offset)] = desc.length
            report.degraded(
                "missing_primary",
                f"{survey.primary}: primary lost; replica "
                f"{survey.source_key} survives")
        if container_id in plan:
            good = len(survey.slots) - len(survey.bad_slots())
            if good == 0 and survey.source is None:
                report.problem("container_lost",
                               f"container {container_id}: no surviving "
                               f"copy in any fault domain")
            elif good < plan.target(container_id):
                report.degraded("under_replicated",
                                f"container {container_id}: {good} of "
                                f"{plan.target(container_id)} planned "
                                f"copies present")
        for key in survey.unplanned:
            report.degraded("orphan_replica",
                            f"{key}: replica has no plan entry")
    for key in junk:
        report.degraded("orphan_replica", f"{key}: names no container")
