"""Restore engine: reassemble any backed-up session from the cloud.

Restore needs only the session manifest and the self-describing
containers/objects it references.  Containers are fetched once and kept
in a small LRU cache — the *chunk locality* preserved by the container
manager (Sec. III-F) is what makes this effective, and the restore tests
assert both bit-exactness and the bounded fetch count.

Every extent is verified against its recipe fingerprint: the digest
length identifies the hash (see
:func:`repro.hashing.hash_for_digest_len`), so verification needs no
side channel.  Delta extents (see :mod:`repro.delta`) are decoded by
recursively materialising their base chain, whose depth is capped by
``max_delta_depth``.

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
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.container.format import ContainerFormatError, ContainerReader
from repro.core import naming
from repro.core.recipe import ChunkRef, Manifest
from repro.delta import DeltaError, apply_delta
from repro.errors import (CloudError, IntegrityError, PermanentCloudError,
                          RestoreError)
from repro.hashing import hash_for_digest_len
from repro.obs.tracer import NOOP_TRACER

__all__ = ["RestoreClient", "RestoreReport", "restore_session"]


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


class RestoreClient:
    """Reassembles files of a session from cloud storage."""

    def __init__(self, cloud, verify: bool = True,
                 container_cache_size: int = 8,
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
        self._cache_size = max(1, container_cache_size)
        self._containers: "OrderedDict[int, ContainerReader]" = OrderedDict()
        self._fetched = 0
        self._retries = 0
        self._failovers = 0
        #: Durability plan, loaded lazily on the first primary failure
        #: (the healthy path never pays for it).
        self._plan_loaded = False
        self._plan = None
        #: Reconstructed delta targets by extent location — duplicate
        #: refs to a delta chunk decode its chain once, not per file.
        self._delta_memo: "OrderedDict[tuple, bytes]" = OrderedDict()

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

    def _container(self, container_id: int) -> ContainerReader:
        reader = self._containers.get(container_id)
        if reader is not None:
            self._containers.move_to_end(container_id)
            return reader
        with self.tracer.span("restore.container_fetch",
                              container=container_id):
            reader = self._fetch_container(container_id)
        self._fetched += 1
        self._containers[container_id] = reader
        while len(self._containers) > self._cache_size:
            self._containers.popitem(last=False)
        return reader

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

    def _read_extent(self, ref: ChunkRef, length: int,
                     report: RestoreReport) -> bytes:
        """Raw stored bytes of ``ref`` (container slice or object)."""
        if ref.in_container:
            data = self._container(ref.container_id).read_at(ref.offset,
                                                             length)
        else:
            data = self.cloud.get(ref.object_key)
            report.objects_fetched += 1
        if len(data) != length:
            raise IntegrityError(
                f"extent length mismatch ({len(data)} != {length})")
        return data

    def _verify_payload(self, data: bytes, ref: ChunkRef,
                        report: RestoreReport) -> None:
        hasher = hash_for_digest_len(len(ref.fingerprint))
        if hasher is not None:
            if hasher.hash(data) != ref.fingerprint:
                raise IntegrityError("fingerprint mismatch on restore")
            report.chunks_verified += 1

    def _fetch_delta(self, ref: ChunkRef, report: RestoreReport,
                     depth: int) -> bytes:
        """Materialise a delta extent by resolving its base chain."""
        if depth > self.max_delta_depth:
            raise RestoreError(
                f"delta chain deeper than max_delta_depth="
                f"{self.max_delta_depth}")
        memo_key = ((ref.container_id, ref.offset) if ref.in_container
                    else ref.object_key)
        cached = self._delta_memo.get(memo_key)
        if cached is not None:
            self._delta_memo.move_to_end(memo_key)
            return cached
        blob = self._read_extent(ref, ref.stored_length, report)
        base = self._fetch_ref(ref.delta_base, report, depth=depth + 1)
        try:
            data = self._apply_delta(base, blob, ref)
        except IntegrityError:
            if ref.in_container:
                # Container extents are CRC-covered at fetch time, so
                # the blob is what was stored — a decode failure is
                # real corruption, not transport noise.
                raise
            self._retries += 1
            blob = self._read_extent(ref, ref.stored_length, report)
            data = self._apply_delta(base, blob, ref)
        report.deltas_applied += 1
        self._delta_memo[memo_key] = data
        while len(self._delta_memo) > 128:
            self._delta_memo.popitem(last=False)
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

    def _fetch_ref(self, ref: ChunkRef, report: RestoreReport,
                   depth: int = 1) -> bytes:
        if ref.is_delta and depth == 1:  # one span per chain head
            with self.tracer.span("restore.delta_chain",
                                  depth=ref.chain_depth()):
                data = self._fetch_delta(ref, report, depth)
        elif ref.is_delta:
            data = self._fetch_delta(ref, report, depth)
        else:
            data = self._read_extent(ref, ref.length, report)
        if self.verify:
            try:
                self._verify_payload(data, ref, report)
            except IntegrityError:
                if ref.is_delta or ref.in_container:
                    # Decoded deltas and CRC-covered container extents
                    # cannot be transport flips — the mismatch is real.
                    raise
                self._retries += 1
                data = self._read_extent(ref, ref.length, report)
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

    # ------------------------------------------------------------------
    def restore_to_memory(self, session_id: int,
                          paths: Optional[list[str]] = None
                          ) -> tuple[Dict[str, bytes], RestoreReport]:
        """Restore a session (or selected ``paths``) into a dict."""
        with self.tracer.span("restore", session=session_id):
            manifest = self.load_manifest(session_id)
            report = RestoreReport(session_id=session_id)
            wanted = set(paths) if paths is not None else None
            out: Dict[str, bytes] = {}
            for entry in manifest:
                if wanted is not None and entry.path not in wanted:
                    continue
                with self.tracer.span("restore.file", app=entry.app,
                                      bytes=entry.size):
                    pieces = [self._fetch_ref(ref, report)
                              for ref in entry.refs]
                    data = b"".join(pieces)
                if len(data) != entry.size:
                    raise IntegrityError(
                        f"file size mismatch for {entry.path!r}")
                out[entry.path] = data
                report.files_restored += 1
                report.bytes_restored += len(data)
            if wanted is not None and len(out) != len(wanted):
                missing = sorted(wanted - set(out))
                raise RestoreError(f"paths not in session: {missing}")
            report.containers_fetched = self._fetched
            report.fetch_retries = self._retries
            report.failovers = self._failovers
            return out, report

    def restore_to_directory(self, session_id: int,
                             dest: str | os.PathLike,
                             paths: Optional[list[str]] = None
                             ) -> RestoreReport:
        """Restore a session into a directory tree."""
        files, report = self.restore_to_memory(session_id, paths)
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
