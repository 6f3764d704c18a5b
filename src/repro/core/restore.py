"""Restore engine: reassemble any backed-up session from the cloud.

A restore is planned from the manifest before the first container GET:
each ref gets its file offset, and every container extent is grouped
by container in first-use order, then by file.  One pass fetches each
container once, verifies each extent and hands it to a sink at
``(file, offset)``.  The destination is the assembly area (forward
assembly, Lillibridge et al., FAST'13), so a directory restore holds
one container and the plan, never the session.  Standalone objects are
fetched after the pass.  A bad container or object is fetched once
more (a transport flip looks like corruption on first read); a
container still bad fails over to its replicas
(:mod:`repro.durability`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path, PurePath
from typing import Dict, List, Optional

from repro.container.format import ContainerFormatError, ContainerReader
from repro.core import naming
from repro.core.recipe import ChunkRef, FileEntry, Manifest
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
    """One restore in flight: its report and its sink."""

    report: RestoreReport
    sink: object = None


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
                 tracer=None) -> None:
        self.cloud = cloud
        self.verify = verify
        self.master_key = master_key
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

    def _plan_restore(self, manifest: Manifest, paths):
        """The selected files, and per container (first-use order) per
        file its ``(offset, ref)`` extents."""
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
                if ref.in_container:
                    plan.pending += 1
                    jobs.setdefault(ref.container_id, {}).setdefault(
                        plan, []).append((offset, ref))
                else:
                    plan.later.append((offset, ref))
                offset += ref.length
        return files, jobs

    def _container_pass(self, jobs: dict, run: _Run) -> None:
        """Fetch each planned container once and land its extents."""
        for container_id, groups in jobs.items():
            with self.tracer.span("restore.container_fetch",
                                  container=container_id):
                reader = self._fetch_container(container_id)
            self._fetched += 1
            for plan, extents in groups.items():
                run.sink.write(plan.entry.path, [(offset, self._finish(
                    _sized(reader.read_at(ref.offset, ref.length),
                           ref.length), ref, run.report))
                    for offset, ref in extents])
                plan.pending -= len(extents)
                if not plan.pending and not plan.later:
                    self._complete(plan, run)
            del reader

    def _complete(self, plan: _FilePlan, run: _Run) -> None:
        """Land the standalone objects, then finish the file."""
        entry, report = plan.entry, run.report
        with self.tracer.span("restore.file", app=entry.app,
                              bytes=entry.size):
            for offset, ref in plan.later:
                run.sink.write(entry.path, [(offset, self._finish(
                    self._read_object(ref, report), ref, report))])
            run.sink.finish(entry.path)
        report.files_restored += 1
        report.bytes_restored += entry.size

    def _read_object(self, ref: ChunkRef, report: RestoreReport) -> bytes:
        """Stored bytes of a standalone object."""
        data = self.cloud.get(ref.object_key)
        report.objects_fetched += 1
        return _sized(data, ref.length)

    def _finish(self, data: bytes, ref: ChunkRef,
                report: RestoreReport) -> bytes:
        """Verify ``data`` against ``ref``'s fingerprint, then decrypt."""
        hasher = (hash_for_digest_len(len(ref.fingerprint))
                  if self.verify else None)
        if hasher is not None and hasher.hash(data) != ref.fingerprint:
            if ref.in_container:
                # A CRC-covered container extent cannot be a transport
                # flip — the mismatch is real.
                raise IntegrityError("fingerprint mismatch on restore")
            self._retries += 1
            data = self._read_object(ref, report)
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

    def _restore(self, session_id: int, paths, make_sink) -> _Run:
        """The planned pass into ``make_sink(files)`` (built pre-GET)."""
        with self.tracer.span("restore", session=session_id):
            manifest = self.load_manifest(session_id)
            run = _Run(RestoreReport(session_id=session_id))
            files, jobs = self._plan_restore(manifest, paths)
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
