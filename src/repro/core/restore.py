"""Restore engine: reassemble any backed-up session from the cloud.

Restore needs only the session manifest and the self-describing
containers/objects it references.  The recipe is known before the first
container GET, so a restore is *planned*: the selected files get one
slot per extent, and every in-container extent — each hop of a delta
chain included — is grouped by container in first-use order.  One pass
then fetches each container exactly once, fills its slots and keeps the
raw bytes delta chains need; the reader is dropped before the next
fetch.  This is forward assembly (Lillibridge et al., FAST'13): the
*chunk locality* the container manager preserves (Sec. III-F) bounds
how many containers a session touches, and the plan makes that number
the fetch count, however fragmented the store has become.

Every extent is verified against its recipe fingerprint: the digest
length identifies the hash (see
:func:`repro.hashing.hash_for_digest_len`), so verification needs no
side channel.  Delta extents (see :mod:`repro.delta`) are decoded after
the pass from their kept base chain, whose depth is capped by
``max_delta_depth``; a target several files share is decoded once per
restore.  Standalone objects are fetched in recipe order after the
pass.  A bad ``paths`` selection and an over-deep chain fail while
planning, before any container GET.

Verification failures are not immediately fatal: a transport-level bit
flip (modelled by ``ChaosBackend.corrupt_rate``) and at-rest corruption
look identical on first read, so the client **retries the fetch once**
— a container whose CRC fails is re-fetched; a standalone object whose
content misses its fingerprint is re-fetched; a delta blob that fails
to apply is re-fetched.  Only a second failure is treated as real.  A
container whose primary is missing or corrupt after the retry **fails
over** to the replica copies recorded in the durability plan
(:mod:`repro.durability`) instead of aborting the restore.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Dict, List, Optional, Tuple

from repro.container.format import ContainerFormatError, ContainerReader
from repro.core import naming
from repro.core.recipe import ChunkRef, FileEntry, Manifest
from repro.delta import DeltaError, apply_delta
from repro.errors import (CloudError, IntegrityError, PermanentCloudError,
                          RestoreError)
from repro.hashing import hash_for_digest_len
from repro.obs.tracer import NOOP_TRACER

__all__ = ["RestoreClient", "RestoreReport", "restore_session"]

#: One container-pass job: the extent, and the file's slot list and
#: index it fills — ``None`` for a delta hop or base kept raw.
_Job = Tuple[ChunkRef, Optional[list], int]


@dataclass
class _FilePlan:
    """One selected file: a slot per ref, and the refs the container
    pass leaves open (deltas and standalone objects) by slot index."""

    entry: FileEntry
    pieces: list
    later: List[Tuple[int, ChunkRef]]


@dataclass
class RestoreReport:
    """Outcome of one restore."""

    session_id: int
    files_restored: int = 0
    bytes_restored: int = 0
    containers_fetched: int = 0
    objects_fetched: int = 0
    chunks_verified: int = 0
    #: Delta extents decoded against their base chain.
    deltas_applied: int = 0
    #: Fetches repeated after a verification failure (cumulative over
    #: the client's lifetime, like ``containers_fetched``).
    fetch_retries: int = 0
    #: Containers served from a replica copy after the primary was
    #: missing or corrupt (cumulative).
    failovers: int = 0
    #: paths that failed verification (empty on success).
    corrupt: list = field(default_factory=list)


def _location(ref: ChunkRef):
    """Where ``ref``'s stored extent lives: (container, offset) or key."""
    return ((ref.container_id, ref.offset) if ref.in_container
            else ref.object_key)


def _sized(data: bytes, length: int) -> bytes:
    """``data``, checked to be the ``length`` bytes the recipe names."""
    if len(data) != length:
        raise IntegrityError(
            f"extent length mismatch ({len(data)} != {length})")
    return data


class RestoreClient:
    """Reassembles files of a session from cloud storage."""

    def __init__(self, cloud, verify: bool = True,
                 master_key: Optional[bytes] = None,
                 max_delta_depth: int = 8,
                 tracer=None) -> None:
        self.cloud = cloud
        self.verify = verify
        self.master_key = master_key
        #: Longest delta chain this client will follow.  A chain deeper
        #: than the writer could produce (``delta.stage.MAX_CHAIN``)
        #: means a corrupt or adversarial manifest, not data — refuse it
        #: rather than recurse without bound.
        self.max_delta_depth = max(1, max_delta_depth)
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._fetched = 0
        self._retries = 0
        self._failovers = 0
        #: Durability plan, loaded lazily on the first primary failure
        #: (the healthy path never pays for it).
        self._plan_loaded = False
        self._plan = None

    # ------------------------------------------------------------------
    def load_manifest(self, session_id: int) -> Manifest:
        """Fetch and parse the manifest of ``session_id``."""
        blob = self.cloud.get(naming.manifest_key(session_id))
        return Manifest.from_json(blob)

    def _replica_candidates(self, container_id: int) -> List[str]:
        """Planned replica keys to fail over to (empty without a plan)."""
        if not self._plan_loaded:
            self._plan_loaded = True
            from repro.durability.policy import ReplicationPlan
            self._plan = ReplicationPlan.load(self.cloud)
        if self._plan is None:
            return []
        return self._plan.replica_keys(container_id)

    def _fetch_container(self, container_id: int) -> ContainerReader:
        """Primary, retried once on corruption, then replica failover."""
        key = naming.container_key(container_id)
        failure: Exception
        try:
            return ContainerReader(self.cloud.get(key))
        except (ContainerFormatError, PermanentCloudError) as exc:
            failure = exc
        if isinstance(failure, ContainerFormatError):
            self._retries += 1
            try:
                return ContainerReader(self.cloud.get(key))
            except (ContainerFormatError, PermanentCloudError) as exc:
                failure = exc
        for replica in self._replica_candidates(container_id):
            try:
                reader = ContainerReader(self.cloud.get(replica))
            except (ContainerFormatError, CloudError):
                continue
            if reader.container_id != container_id:
                continue
            self._failovers += 1
            if self.tracer.enabled:
                self.tracer.metrics.counter(
                    "restore_failover_total").inc()
            return reader
        if isinstance(failure, ContainerFormatError):
            raise IntegrityError(
                f"container {container_id} failed validation: {failure}"
            ) from failure
        raise failure

    # ------------------------------------------------------------------
    def _plan_restore(self, manifest: Manifest, paths: Optional[list[str]]
                      ) -> Tuple[List[_FilePlan], Dict[int, List[_Job]]]:
        """Select the files and group their container extents.

        Returns the selected files in manifest order and, per container
        in first-use order, the extents the pass reads from it.
        """
        if paths is None:
            entries = list(manifest)
        else:
            missing = sorted({p for p in paths if manifest.get(p) is None})
            if missing:
                raise RestoreError(f"paths not in session: {missing}")
            wanted = set(paths)
            entries = [e for e in manifest if e.path in wanted]
        files: List[_FilePlan] = []
        jobs: Dict[int, List[_Job]] = {}
        kept = set()
        for entry in entries:
            plan = _FilePlan(entry, [b""] * len(entry.refs), [])
            files.append(plan)
            for index, ref in enumerate(entry.refs):
                if not ref.is_delta:
                    if ref.in_container:
                        jobs.setdefault(ref.container_id, []).append(
                            (ref, plan.pieces, index))
                    else:
                        plan.later.append((index, ref))
                    continue
                if ref.chain_depth() > self.max_delta_depth:
                    raise RestoreError(
                        f"delta chain deeper than max_delta_depth="
                        f"{self.max_delta_depth}")
                plan.later.append((index, ref))
                hop = ref
                while hop is not None:  # every hop is read raw
                    location = _location(hop)
                    if hop.in_container and location not in kept:
                        kept.add(location)
                        jobs.setdefault(hop.container_id, []).append(
                            (hop, None, 0))
                    hop = hop.delta_base
        return files, jobs

    def _container_pass(self, jobs: Dict[int, List[_Job]],
                        report: RestoreReport) -> Dict[tuple, bytes]:
        """Fetch each planned container once and fill its slots.

        Returns the raw bytes of the delta hops and bases, by location.
        """
        kept: Dict[tuple, bytes] = {}
        for container_id, extents in jobs.items():
            with self.tracer.span("restore.container_fetch",
                                  container=container_id):
                reader = self._fetch_container(container_id)
            self._fetched += 1
            for ref, pieces, index in extents:
                if pieces is None:
                    kept[_location(ref)] = _sized(
                        reader.read_at(ref.offset, ref.cloud_length),
                        ref.cloud_length)
                else:
                    data = _sized(reader.read_at(ref.offset, ref.length),
                                  ref.length)
                    pieces[index] = self._finish(data, ref, report)
        return kept

    def _read_object(self, ref: ChunkRef, length: int,
                     report: RestoreReport) -> bytes:
        """Stored bytes of a standalone object."""
        data = self.cloud.get(ref.object_key)
        report.objects_fetched += 1
        return _sized(data, length)

    def _verify_payload(self, data: bytes, ref: ChunkRef,
                        report: RestoreReport) -> None:
        hasher = hash_for_digest_len(len(ref.fingerprint))
        if hasher is not None:
            if hasher.hash(data) != ref.fingerprint:
                raise IntegrityError("fingerprint mismatch on restore")
            report.chunks_verified += 1

    def _finish(self, data: bytes, ref: ChunkRef,
                report: RestoreReport) -> bytes:
        """Verify ``data`` against ``ref``'s fingerprint, then decrypt."""
        if self.verify:
            try:
                self._verify_payload(data, ref, report)
            except IntegrityError:
                if ref.is_delta or ref.in_container:
                    # Decoded deltas and CRC-covered container extents
                    # cannot be transport flips — the mismatch is real.
                    raise
                self._retries += 1
                data = self._read_object(ref, ref.length, report)
                self._verify_payload(data, ref, report)
        if ref.wrapped_key is not None:
            # Convergently encrypted extent: recover and apply its key.
            if self.master_key is None:
                raise RestoreError(
                    "session is encrypted; a master_key is required")
            from repro.secure import ConvergentCipher, unwrap_key
            key = unwrap_key(ref.wrapped_key, self.master_key,
                             ref.fingerprint)
            data = ConvergentCipher.decrypt(data, key)
        return data

    def _apply_delta(self, base: bytes, blob: bytes,
                     ref: ChunkRef) -> bytes:
        try:
            data = apply_delta(base, blob)
        except DeltaError as exc:
            raise IntegrityError(f"delta decode failed: {exc}") from exc
        if len(data) != ref.length:
            raise IntegrityError(
                f"delta target length mismatch "
                f"({len(data)} != {ref.length})")
        return data

    def _resolve(self, ref: ChunkRef, kept: Dict[tuple, bytes],
                 decoded: dict, report: RestoreReport) -> bytes:
        """Bytes of a ref the container pass left open: a standalone
        object, a kept delta base, or a delta (decoded once per restore
        into ``decoded``)."""
        if not ref.is_delta:
            data = (kept[_location(ref)] if ref.in_container
                    else self._read_object(ref, ref.length, report))
            return self._finish(data, ref, report)
        location = _location(ref)
        data = decoded.get(location)
        if data is not None:
            return data
        blob = (kept[location] if ref.in_container
                else self._read_object(ref, ref.stored_length, report))
        base = self._resolve(ref.delta_base, kept, decoded, report)
        try:
            data = self._apply_delta(base, blob, ref)
        except IntegrityError:
            if ref.in_container:
                # Container extents are CRC-covered at fetch time, so
                # the blob is what was stored — a decode failure is
                # real corruption, not transport noise.
                raise
            self._retries += 1
            blob = self._read_object(ref, ref.stored_length, report)
            data = self._apply_delta(base, blob, ref)
        report.deltas_applied += 1
        data = decoded[location] = self._finish(data, ref, report)
        return data

    # ------------------------------------------------------------------
    def restore_to_memory(self, session_id: int,
                          paths: Optional[list[str]] = None
                          ) -> tuple[Dict[str, bytes], RestoreReport]:
        """Restore a session (or selected ``paths``) into a dict."""
        with self.tracer.span("restore", session=session_id):
            manifest = self.load_manifest(session_id)
            report = RestoreReport(session_id=session_id)
            files, jobs = self._plan_restore(manifest, paths)
            kept = self._container_pass(jobs, report)
            decoded: dict = {}
            out: Dict[str, bytes] = {}
            for plan in files:
                entry, pieces = plan.entry, plan.pieces
                with self.tracer.span("restore.file", app=entry.app,
                                      bytes=entry.size):
                    for index, ref in plan.later:
                        if ref.is_delta:  # one span per chain head
                            with self.tracer.span(
                                    "restore.delta_chain",
                                    depth=ref.chain_depth()):
                                pieces[index] = self._resolve(
                                    ref, kept, decoded, report)
                        else:
                            pieces[index] = self._resolve(
                                ref, kept, decoded, report)
                    data = b"".join(pieces)
                pieces.clear()  # the joined copy replaces the slots
                if len(data) != entry.size:
                    raise IntegrityError(
                        f"file size mismatch for {entry.path!r}")
                out[entry.path] = data
                report.files_restored += 1
                report.bytes_restored += len(data)
            report.containers_fetched = self._fetched
            report.fetch_retries = self._retries
            report.failovers = self._failovers
            return out, report

    def restore_to_directory(self, session_id: int,
                             dest: str | os.PathLike,
                             paths: Optional[list[str]] = None
                             ) -> RestoreReport:
        """Restore a session into a directory tree.

        Every path must stay inside ``dest``: an absolute path or a
        ``..`` component raises :class:`RestoreError` before any file
        is written.
        """
        files, report = self.restore_to_memory(session_id, paths)
        for relpath in files:
            path = PurePath(relpath)
            if path.is_absolute() or ".." in path.parts:
                raise RestoreError(
                    f"manifest path escapes the destination: {relpath!r}")
        dest = Path(dest)
        for relpath, data in files.items():
            target = dest / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        return report


def restore_session(cloud, session_id: int, dest: str | os.PathLike,
                    verify: bool = True) -> RestoreReport:
    """Convenience one-shot restore of a whole session to ``dest``."""
    return RestoreClient(cloud, verify=verify).restore_to_directory(
        session_id, dest)
