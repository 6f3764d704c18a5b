"""Cloud scrubbing: verify every stored byte without restoring.

"Is my cloud copy still good?", answered cheaply.  Scrub validates:

* every **container** parses, passes its CRC, and each described extent
  re-hashes to its descriptor fingerprint (the digest width selects the
  hash — :func:`repro.hashing.hash_for_digest_len` — as on restore);
  extents flagged ``FLAG_DELTA`` must additionally be structurally valid
  delta blobs;
* every **replica** of the persisted durability plan (see
  :mod:`repro.durability`) exists, parses and holds the right container;
  a planned container with fewer good copies than its target is
  *under-replicated*, and a replica without a plan entry is *orphaned*;
* every **manifest** parses, references only extents that exist
  (container descriptors or standalone objects), keeps its delta chains
  within depth bounds with no dangling base, and — for standalone
  objects — the stored bytes re-hash to the recipe fingerprint (delta
  objects are validated structurally instead: their bytes are a delta
  blob, not the chunk plaintext);
* every **index replica** parses into valid entries.

One :class:`~repro.core.walk.StoreWalk` covers the tenant namespaces of
a shared fleet backend too.

Everything found is recorded twice: machine-actionable
:class:`ScrubFinding` records (what the repair loop and the CLI exit
code key off), and — for integrity violations — human-readable
``problems`` strings.  *Repairable* findings (a lost primary whose
replica survives, a missing replica, under-replication) mean the data
is intact but durability is degraded; refs into a primary-less
container are resolved against a surviving replica rather than reported
as missing, because restore fails over the same way.

Returns a :class:`ScrubReport`; nothing is modified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.container.format import FLAG_DELTA, ContainerReader
from repro.core import naming
from repro.core.recipe import ChunkRef
from repro.core.walk import StoreWalk
from repro.delta import delta_target_length, validate_delta
from repro.durability.policy import ReplicationPlan
from repro.errors import ContainerFormatError, DeltaError, ReproError
from repro.hashing import hash_for_digest_len
from repro.index.base import IndexEntry

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
    #: Delta blobs (container extents or objects) structurally validated.
    deltas_validated: int = 0
    #: Replica copies that parsed and matched their container id.
    replicas_checked: int = 0
    index_replicas_checked: int = 0
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


def scrub_cloud(cloud, verify_extents: bool = True,
                max_delta_depth: int = 8) -> ScrubReport:
    """Validate all containers, replicas, manifests and index replicas
    in ``cloud``."""
    report = ScrubReport()

    # --- containers ------------------------------------------------------
    # Besides per-extent verification, record every extent's location,
    # length and flags so the manifest pass can resolve refs to actual
    # extents (not just to an existing container blob).
    extent_map: Dict[Tuple[int, int], Tuple[int, int]] = {}
    containers_present = set()
    for key in cloud.list(naming.CONTAINER_PREFIX):
        try:
            reader = ContainerReader(cloud.get(key))
        except ReproError as exc:
            report.problem("corrupt_primary", f"{key}: {exc}")
            continue
        report.containers_checked += 1
        containers_present.add(reader.container_id)
        for desc in reader.descriptors:
            extent_map[(reader.container_id, desc.offset)] = (
                desc.length, desc.flags)
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
            if desc.flags & FLAG_DELTA:
                try:
                    validate_delta(data)
                except DeltaError as exc:
                    report.problem(
                        "corrupt_extent",
                        f"{key}: invalid delta blob at offset "
                        f"{desc.offset}: {exc}")
                    continue
                report.deltas_validated += 1

    # --- durability: replicas against the persisted plan -----------------
    _scrub_replicas(cloud, report, extent_map, containers_present)

    walk = StoreWalk(cloud)
    object_keys = {key for prefix in (naming.CHUNK_PREFIX,
                                      naming.FILE_PREFIX, naming.DELTA_PREFIX)
                   for key in walk.keys(prefix)}

    # --- manifests ---------------------------------------------------------
    verified_objects: Dict[str, bool] = {}

    def check_object(ref: ChunkRef, raw_key: str, where: str) -> None:
        """Verify a standalone object's *content* (a corrupt object
        still "exists"), once per key: non-delta objects re-hash to the
        recipe fingerprint, delta objects are valid blobs of the
        recipe's target length."""
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
        ok = True
        if ref.is_delta:
            try:
                if len(data) != ref.stored_length:
                    raise DeltaError(
                        f"stored {len(data)}B != recorded "
                        f"{ref.stored_length}B")
                if delta_target_length(data) != ref.length:
                    raise DeltaError("declared target length mismatch")
                validate_delta(data)
            except DeltaError as exc:
                ok = False
                report.problem(
                    "corrupt_object",
                    f"{where}: delta object {ref.object_key}: {exc}")
            else:
                report.deltas_validated += 1
        else:
            hasher = hash_for_digest_len(len(ref.fingerprint))
            if hasher is not None and hasher.hash(data) != ref.fingerprint:
                ok = False
                report.problem(
                    "corrupt_object",
                    f"{where}: object {ref.object_key} content does not "
                    f"match its fingerprint")
            else:
                report.objects_verified += 1
        verified_objects[raw_key] = ok

    def check_ref(ref: ChunkRef, namespace: Optional[str], where: str,
                  role: str = "extent") -> None:
        if ref.in_container:
            if ref.container_id not in containers_present:
                report.problem(
                    "missing_primary",
                    f"{where} references missing container "
                    f"{ref.container_id} ({role})")
                return
            found = extent_map.get((ref.container_id, ref.offset))
            if found is None:
                report.problem(
                    "dangling_ref",
                    f"{where}: no extent at container "
                    f"{ref.container_id} offset {ref.offset} ({role})")
                return
            length, flags = found
            if length != ref.cloud_length:
                report.problem(
                    "dangling_ref",
                    f"{where}: extent length mismatch at container "
                    f"{ref.container_id} offset {ref.offset} "
                    f"({length} != {ref.cloud_length}, {role})")
                return
            if ref.is_delta and not flags & FLAG_DELTA:
                report.problem(
                    "dangling_ref",
                    f"{where}: delta ref resolves to a non-delta extent "
                    f"at container {ref.container_id} offset "
                    f"{ref.offset}")
                return
        else:
            raw_key = naming.tenant_key(namespace, ref.object_key)
            if raw_key not in object_keys:
                report.problem(
                    "missing_object",
                    f"{where} references missing object "
                    f"{ref.object_key} ({role})")
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
                if ref.chain_depth() > max_delta_depth:
                    report.problem("delta_chain", f"{where} delta chain "
                                   f"deeper than {max_delta_depth}")
                    continue
                role = "extent"
                while ref is not None:
                    check_ref(ref, record.namespace, where, role)
                    ref, role = ref.delta_base, "delta base"

    # --- index replicas ---------------------------------------------------
    record = IndexEntry.RECORD_SIZE
    for key in walk.keys(naming.INDEX_PREFIX):
        blob = cloud.get(key)
        try:
            if len(blob) % record:
                raise ReproError("truncated index replica")
            for pos in range(0, len(blob), record):
                IndexEntry.unpack(blob[pos:pos + record])
        except ReproError as exc:
            report.problem("corrupt_index", f"{key}: {exc}")
            continue
        report.index_replicas_checked += 1

    return report


def _scrub_replicas(cloud, report: ScrubReport,
                    extent_map: Dict[Tuple[int, int], Tuple[int, int]],
                    containers_present: Set[int]) -> None:
    """Check every planned replica; recover refs through survivors.

    When a planned container's primary is missing (or failed to parse),
    a good replica both proves the data still exists — its extents are
    registered so the manifest pass resolves refs instead of reporting
    loss — and downgrades the failure to a repairable
    ``missing_primary`` finding.
    """
    present = set(cloud.list(naming.REPLICA_PREFIX))
    plan = ReplicationPlan.load(cloud)
    planned_keys: Set[str] = set()
    if plan is not None:
        for container_id in sorted(plan.targets):
            expected = plan.replica_keys(container_id)
            planned_keys.update(expected)
            primary_ok = container_id in containers_present
            good_copies = 1 if primary_ok else 0
            recovered = False
            for key in expected:
                if key not in present:
                    report.degraded(
                        "missing_replica",
                        f"{key}: replica missing "
                        f"(container {container_id})")
                    continue
                try:
                    reader = ContainerReader(cloud.get(key))
                    if reader.container_id != container_id:
                        raise ContainerFormatError(
                            f"replica holds container "
                            f"{reader.container_id}")
                except ReproError as exc:
                    report.degraded("corrupt_replica", f"{key}: {exc}")
                    continue
                report.replicas_checked += 1
                good_copies += 1
                if not primary_ok and not recovered:
                    recovered = True
                    containers_present.add(container_id)
                    for desc in reader.descriptors:
                        extent_map[(container_id, desc.offset)] = (
                            desc.length, desc.flags)
                    report.degraded(
                        "missing_primary",
                        f"{naming.container_key(container_id)}: primary "
                        f"lost; replica {key} survives")
            if good_copies == 0:
                report.problem(
                    "container_lost",
                    f"container {container_id}: no surviving copy in "
                    f"any fault domain")
            elif good_copies < plan.target(container_id):
                report.degraded(
                    "under_replicated",
                    f"container {container_id}: {good_copies} of "
                    f"{plan.target(container_id)} planned copies "
                    f"present")
    for key in sorted(present - planned_keys):
        report.degraded("orphan_replica",
                        f"{key}: replica has no plan entry")
