"""Restore engine: reassemble any backed-up session from the cloud.

A restore is planned from the manifest before the first container GET:
each ref gets its file offset, and every container extent (delta-chain
hops too) is grouped by container in first-use order, then by file.
One pass fetches each container once, verifies each extent and hands
it to a sink at ``(file, offset)``.  The destination is the assembly
area (forward assembly, Lillibridge et al., FAST'13), so a directory
restore holds one container and the plan, never the session.  Delta
targets and standalone objects are resolved after the pass; a shared
target is decoded once, and chain bytes are freed after their last use.
A bad container, object or standalone delta blob is fetched once more
(a transport flip looks like corruption on first read); a container
still bad fails over to its replicas (:mod:`repro.durability`).
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path, PurePath
from typing import Dict, List, Optional

from repro.container.format import ContainerFormatError, ContainerReader
from repro.core import naming
from repro.core.recipe import ChunkRef, FileEntry, Manifest
from repro.delta import DeltaError, apply_delta
from repro.errors import (CloudError, IntegrityError, PermanentCloudError,
                          RestoreError)
from repro.hashing import hash_for_digest_len
from repro.obs.tracer import NOOP_TRACER

__all__ = ["RestoreClient", "RestoreReport", "restore_session"]

#: Buffers one ``os.pwritev`` takes (IOV_MAX on Linux, macOS and BSD).
_IOV_MAX = 1024


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
    #: Fetches repeated after a verification failure, and containers
    #: served by a replica (both cumulative over the client's life).
    fetch_retries: int = 0
    failovers: int = 0
    #: paths that failed verification (empty on success).
    corrupt: list = field(default_factory=list)


@dataclass(eq=False)
class _FilePlan:
    """A selected file: container extents to land, refs left open."""

    entry: FileEntry
    pending: int = 0
    later: list = field(default_factory=list)


@dataclass
class _Run:
    """One restore in flight: report, sink, and delta-chain bytes by
    ref (raw hops, decoded targets) with the reads planned of each."""

    report: RestoreReport
    sink: object = None
    raw: dict = field(default_factory=dict)
    decoded: dict = field(default_factory=dict)
    uses: Counter = field(default_factory=Counter)

    def take(self, held: dict, ref: ChunkRef):
        """``held[ref]`` or ``None``, freed on its last use."""
        self.uses[ref] -= 1
        return (held.get if self.uses[ref] else held.pop)(ref, None)


def _sized(data: bytes, length: int) -> bytes:
    """``data``, checked to be the ``length`` bytes the recipe names."""
    if len(data) != length:
        raise IntegrityError(
            f"extent length mismatch ({len(data)} != {length})")
    return data


class _MemorySink:
    """Assembles each file in a ``bytearray`` of its size."""

    def __init__(self, files: List[_FilePlan]) -> None:
        self.out = {p.entry.path: bytearray(p.entry.size) for p in files}

    def write(self, path: str, pieces: list) -> None:
        for offset, data in pieces:
            self.out[path][offset:offset + len(data)] = data

    def finish(self, path: str) -> None:
        self.out[path] = bytes(self.out[path])

    def abort(self) -> None:
        pass


class _DirectorySink:
    """Writes extents into their files under ``dest``, truncating on a
    file's first write; :meth:`abort` unlinks the unfinished ones."""

    def __init__(self, dest, files: List[_FilePlan]) -> None:
        for path in (PurePath(plan.entry.path) for plan in files):
            if path.is_absolute() or ".." in path.parts:
                raise RestoreError(
                    f"manifest path escapes the destination: {str(path)!r}")
        self.dest = Path(dest)
        self._started: Dict[str, Path] = {}

    def write(self, path: str, pieces: list) -> None:
        """One open per call; contiguous extents share one write."""
        target = self.dest / path
        if path not in self._started:
            target.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(target, os.O_WRONLY if path in self._started
                     else os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        self._started[path] = target
        try:
            start = end = pieces[0][0] if pieces else 0
            run: list = []
            for offset, data in pieces + [(-1, b"")]:
                if run and (offset != end or len(run) == _IOV_MAX):
                    if os.pwritev(fd, run, start) != end - start:
                        raise OSError(f"short write to {path!r}")
                    start, run = offset, []
                run.append(data)
                end = offset + len(data)
        finally:
            os.close(fd)

    def finish(self, path: str) -> None:
        if path not in self._started:  # an empty file
            self.write(path, [])
        del self._started[path]

    def abort(self) -> None:
        for target in self._started.values():
            target.unlink(missing_ok=True)


class RestoreClient:
    """Reassembles files of a session from cloud storage."""

    def __init__(self, cloud, verify: bool = True,
                 master_key: Optional[bytes] = None,
                 max_delta_depth: int = 8,
                 tracer=None) -> None:
        self.cloud = cloud
        self.verify = verify
        self.master_key = master_key
        #: Longest delta chain followed; a deeper one than the writer
        #: makes (``delta.stage.MAX_CHAIN``) means a corrupt manifest.
        self.max_delta_depth = max(1, max_delta_depth)
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._fetched = self._retries = self._failovers = 0

    def load_manifest(self, session_id: int) -> Manifest:
        """Fetch and parse the manifest of ``session_id``."""
        blob = self.cloud.get(naming.manifest_key(session_id))
        return Manifest.from_json(blob)

    @cached_property
    def _replication_plan(self):
        """The durability plan, loaded on the first primary failure."""
        from repro.durability.policy import ReplicationPlan
        return ReplicationPlan.load(self.cloud)

    def _fetch_container(self, container_id: int) -> ContainerReader:
        """Primary, retried once on corruption, then replica failover."""
        key = naming.container_key(container_id)
        for attempt in range(2):
            try:
                return ContainerReader(self.cloud.get(key))
            except (ContainerFormatError, PermanentCloudError) as exc:
                failure = exc
            if attempt or not isinstance(failure, ContainerFormatError):
                break
            self._retries += 1
        plan = self._replication_plan
        for replica in plan.replica_keys(container_id) if plan else ():
            try:
                reader = ContainerReader(self.cloud.get(replica))
            except (ContainerFormatError, CloudError):
                continue
            if reader.container_id == container_id:
                self._failovers += 1
                if self.tracer.enabled:
                    self.tracer.metrics.counter("restore_failover_total").inc()
                return reader
        if isinstance(failure, ContainerFormatError):
            raise IntegrityError(
                f"container {container_id} failed validation: {failure}"
            ) from failure
        raise failure

    def _plan_restore(self, manifest: Manifest, paths, run: _Run):
        """The selected files, and per container (first-use order) per
        file (``None``: raw delta hops) its ``(offset, ref)`` extents."""
        wanted = set(paths or ())
        if missing := sorted(p for p in wanted if manifest.get(p) is None):
            raise RestoreError(f"paths not in session: {missing}")
        files = [_FilePlan(e) for e in manifest
                 if paths is None or e.path in wanted]
        jobs: Dict[int, dict] = {}
        for plan in files:
            entry, offset = plan.entry, 0
            if sum(ref.length for ref in entry.refs) != entry.size:
                raise IntegrityError(f"file size mismatch for {entry.path!r}")
            for ref in entry.refs:
                if ref.is_delta or not ref.in_container:
                    plan.later.append((offset, ref))
                else:
                    plan.pending += 1
                    jobs.setdefault(ref.container_id, {}).setdefault(
                        plan, []).append((offset, ref))
                offset += ref.length
                if ref.is_delta and ref.chain_depth() > self.max_delta_depth:
                    raise RestoreError("delta chain deeper than max_delta_"
                                       f"depth={self.max_delta_depth}")
                # Count each hop's reads (a decoded target is memoised,
                # so it reads its base once); read each raw hop once.
                hop = ref if ref.is_delta else None
                while hop is not None:
                    run.uses[hop] += 1
                    if run.uses[hop] == 1 and hop.in_container:
                        jobs.setdefault(hop.container_id, {}).setdefault(
                            None, []).append((0, hop))
                    hop = hop.delta_base if run.uses[hop] == 1 else None
        return files, jobs

    def _container_pass(self, jobs: dict, run: _Run) -> None:
        """Fetch each planned container once and land its extents."""
        for container_id, groups in jobs.items():
            with self.tracer.span("restore.container_fetch",
                                  container=container_id):
                reader = self._fetch_container(container_id)
            self._fetched += 1
            for plan, extents in groups.items():
                if plan is None:
                    run.raw.update((ref, _sized(
                        reader.read_at(ref.offset, ref.cloud_length),
                        ref.cloud_length)) for _, ref in extents)
                    continue
                run.sink.write(plan.entry.path, [(offset, self._finish(
                    _sized(reader.read_at(ref.offset, ref.length),
                           ref.length), ref, run.report))
                    for offset, ref in extents])
                plan.pending -= len(extents)
                if not plan.pending and not plan.later:
                    self._complete(plan, run)
            del reader

    def _complete(self, plan: _FilePlan, run: _Run) -> None:
        """Land the refs the pass left open, then finish the file."""
        entry = plan.entry
        with self.tracer.span("restore.file", app=entry.app,
                              bytes=entry.size):
            for offset, ref in plan.later:
                with (self.tracer.span("restore.delta_chain",
                                       depth=ref.chain_depth())
                      if ref.is_delta else nullcontext()):
                    run.sink.write(entry.path,
                                   [(offset, self._resolve(ref, run))])
            run.sink.finish(entry.path)
        run.report.files_restored += 1
        run.report.bytes_restored += entry.size

    def _read_object(self, ref: ChunkRef, length: int,
                     report: RestoreReport) -> bytes:
        """Stored bytes of a standalone object."""
        data = self.cloud.get(ref.object_key)
        report.objects_fetched += 1
        return _sized(data, length)

    def _finish(self, data: bytes, ref: ChunkRef,
                report: RestoreReport) -> bytes:
        """Verify ``data`` against ``ref``'s fingerprint, then decrypt."""
        hasher = (hash_for_digest_len(len(ref.fingerprint))
                  if self.verify else None)
        if hasher is not None and hasher.hash(data) != ref.fingerprint:
            if ref.is_delta or ref.in_container:
                # Decoded deltas and CRC-covered container extents
                # cannot be transport flips — the mismatch is real.
                raise IntegrityError("fingerprint mismatch on restore")
            self._retries += 1
            data = self._read_object(ref, ref.length, report)
            if hasher.hash(data) != ref.fingerprint:
                raise IntegrityError("fingerprint mismatch on restore")
        report.chunks_verified += hasher is not None
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

    def _resolve(self, ref: ChunkRef, run: _Run) -> bytes:
        """Bytes of a ref the pass left open: a standalone object, a
        kept delta base, or a delta target (decoded once)."""
        report = run.report
        if not ref.is_delta:
            data = (run.take(run.raw, ref) if ref.in_container
                    else self._read_object(ref, ref.length, report))
            return self._finish(data, ref, report)
        data = run.take(run.decoded, ref)
        if data is not None:
            return data
        blob = (run.raw.pop(ref) if ref.in_container
                else self._read_object(ref, ref.stored_length, report))
        base = self._resolve(ref.delta_base, run)
        for retry in (False, True):
            try:
                data = apply_delta(base, blob)
            except DeltaError as exc:
                data, failure = None, f"delta decode failed: {exc}"
            if data is not None and len(data) == ref.length:
                break
            # A container extent is CRC-covered at fetch time, so its
            # decode failure is real corruption, not transport noise.
            if retry or ref.in_container:
                raise IntegrityError(failure if data is None else
                                     "delta target length mismatch")
            self._retries += 1
            blob = self._read_object(ref, ref.stored_length, report)
        report.deltas_applied += 1
        data = self._finish(data, ref, report)
        if run.uses[ref]:
            run.decoded[ref] = data
        return data

    def _restore(self, session_id: int, paths, make_sink) -> _Run:
        """The planned pass into ``make_sink(files)`` (built pre-GET)."""
        with self.tracer.span("restore", session=session_id):
            manifest = self.load_manifest(session_id)
            run = _Run(RestoreReport(session_id=session_id))
            files, jobs = self._plan_restore(manifest, paths, run)
            run.sink = make_sink(files)
            try:
                self._container_pass(jobs, run)
                for plan in files:  # open refs, then empty files
                    if plan.later or not plan.entry.refs:
                        self._complete(plan, run)
            except BaseException:
                run.sink.abort()
                raise
            run.report.containers_fetched = self._fetched
            run.report.fetch_retries = self._retries
            run.report.failovers = self._failovers
            return run

    def restore_to_memory(self, session_id: int,
                          paths: Optional[list[str]] = None
                          ) -> tuple[Dict[str, bytes], RestoreReport]:
        """Restore a session (or selected ``paths``) into a dict."""
        run = self._restore(session_id, paths, _MemorySink)
        return run.sink.out, run.report

    def restore_to_directory(self, session_id: int,
                             dest: str | os.PathLike,
                             paths: Optional[list[str]] = None
                             ) -> RestoreReport:
        """Restore a session into a directory tree, writing each
        verified extent straight into its file.  An absolute or ``..``
        path raises :class:`RestoreError` before any GET or write.  A
        failed restore keeps the files it finished, each bit-exact, and
        removes every file it started — a pre-existing file of the same
        name it had truncated too."""
        return self._restore(session_id, paths, lambda files:
                             _DirectorySink(dest, files)).report


def restore_session(cloud, session_id: int, dest: str | os.PathLike,
                    verify: bool = True) -> RestoreReport:
    """Convenience one-shot restore of a whole session to ``dest``."""
    return RestoreClient(cloud, verify=verify).restore_to_directory(
        session_id, dest)
