"""The backup engine: one client, five schemes, one stage graph.

:class:`BackupClient` executes backup sessions for any
:class:`~repro.core.options.SchemeConfig` against any cloud facade that
offers ``put/get/list`` (e.g. :class:`repro.cloud.SimulatedCloud` or a
bare backend).  Every session is the paper's linear pipeline (Sec. III):

1. **file size filter** — tiny files skip dedup and are packed into
   containers (:meth:`SchemeConfig.plan_file` decides, per file);
2. **intelligent chunker** — read → chunk → hash stages with
   per-category chunking (WFC/SC/CDC) and adaptive fingerprints, run
   inline on the coordinator or, with ``parallel_workers > 1``, one
   file per job on a ``concurrent.futures`` thread pool (the paper's
   per-file parallelism: applications share no data, Sec. III);
3. **application-aware deduplicator** — the single source-ordered
   commit loop: replay an unchanged file's recipe from the previous
   manifest, or place its chunks against the per-app subindex;
4. **container management** — unique data accumulates into 1 MB padded
   containers, sealed by the append that fills them and uploaded inline
   or, with ``pipeline_uploads``, on one uploader thread overlapping
   deduplication (the paper's pipelined design);
5. **manifest** — the one metadata object a session persists; a
   client's first session open rebuilds the index from the retained
   ones and takes the newest as its previous manifest.

All work is charged to :class:`~repro.core.stats.OpCounters` so the
virtual platform model can price a session on the paper's hardware.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import replace
from itertools import chain, islice
from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.chunking.base import Chunker
from repro.chunking.cdc import ContentDefinedChunker
from repro.classify.filetype import classify_name
from repro.classify.policy import DedupPolicy
from repro.container.manager import ContainerManager
from repro.core import naming
from repro.core.filecache import read_epoch, revalidate, unchanged
from repro.core.journal import SessionJournal
from repro.core.options import SchemeConfig, aa_dedupe_config
from repro.core.pipeline import WorkItem
from repro.core.recipe import ChunkRef, FileEntry, Manifest
from repro.core.source import SourceFile
from repro.core.stats import SessionStats
from repro.core.walk import StoreWalk, mark_store
from repro.errors import BackupError, CloudError
from repro.hashing.base import get_hash
from repro.index.appaware import AppAwareIndex
from repro.index.base import ChunkIndex, IndexEntry
from repro.obs.metrics import CHUNK_SIZE_BUCKETS
from repro.obs.tracer import NOOP_TRACER
from repro.secure import ConvergentCipher, wrap_key
from repro.util.timer import Stopwatch

__all__ = ["BackupClient"]

#: Sealed containers / blobs that may wait for the WAN before the commit
#: loop blocks (``pipeline_uploads``).
_UPLOAD_QUEUE_DEPTH = 4


class _Unreadable(Exception):
    """A source file whose read failed: it is left out of the session."""


def _index_entry(ref: ChunkRef) -> IndexEntry:
    """The index entry of a fully stored extent, for placement and resume
    alike (a standalone object has no container: id 0)."""
    return IndexEntry(ref.fingerprint, max(ref.container_id, 0),
                      ref.offset, ref.length)


class BackupClient:
    """Stateful backup client for one scheme against one cloud store.

    The client owns the chunk index (layout per config), the container
    manager (container ids persist across sessions) and the previous
    session's manifest; call :meth:`backup` once per session with a
    source snapshot.  Construction makes no request: a client reads
    the store only when a session opens (:meth:`_open`).

    ``index_factory(app)`` builds each per-application subindex and
    must return an empty one.  The index is never patched: after a GC
    epoch change or a failed session the client drops it whole,
    unflushed and unclosed, and the next session open builds a new one
    from the retained manifests, as the first open does.
    """

    def __init__(self,
                 cloud,
                 config: SchemeConfig | None = None,
                 index_factory: Callable[[str], ChunkIndex] | None = None,
                 master_key: bytes | None = None,
                 tracer=None,
                 first_container_id: Optional[int] = None,
                 ) -> None:
        self.cloud = cloud
        self.config = config or aa_dedupe_config()
        if self.config.encrypt_chunks and not master_key:
            raise BackupError(
                "encrypt_chunks requires a master_key")
        self.master_key = master_key
        #: Profiling tracer, propagated into every instrumented layer
        #: this client owns (index, containers, chunkers).
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Builds each subindex of every index this client builds.
        self._index_factory = index_factory
        self.index = AppAwareIndex(factory=index_factory,
                                   tracer=self.tracer)
        #: Whether the index may not match the retained manifests: a new
        #: client's, or one dropped since (the next open rebuilds it).
        self._index_stale = True
        #: The last committed session's manifest, the one source of
        #: unchanged-file replays (stat cache, Jungle-Disk detection).
        self._prev_manifest: Optional[Manifest] = None
        self._next_session = 0
        self._chunkers: Dict[tuple, Chunker] = {}
        self._chunkers_lock = threading.Lock()
        #: The pipelined uploader's one thread and its window of
        #: in-flight PUTs, oldest first (``None`` outside a pipelined
        #: session); the flag fails the window fast, the seconds are
        #: the thread's busy time.
        self._uploader: Optional[ThreadPoolExecutor] = None
        self._uploads: Optional[deque] = None
        self._upload_failed = False
        self._upload_busy = 0.0
        self._cloud_lock = threading.Lock()
        #: Application label of the file being committed, so uploads
        #: triggered mid-file are attributed to its app (only the commit
        #: thread sets or reads it).
        self._app: Optional[str] = None
        self._journal: Optional[SessionJournal] = None
        #: The store's GC epoch when this client last read it (``None``:
        #: no session has opened yet).
        self._epoch: Optional[int] = None
        # Multi-client deployments sharing one container pool assign
        # each client a disjoint id range up front; a single client
        # numbers after the store's containers at its first open.
        self._first_container_id = first_container_id
        self._containers = ContainerManager(
            upload=lambda container_id, blob: self._put(
                naming.container_key(container_id), blob),
            container_size=self.config.container_size,
            pad_containers=self.config.pad_containers,
            first_container_id=first_container_id or 0,
            tracer=self.tracer,
        ) if self.config.use_containers else None

    # -- cloud I/O ------------------------------------------------------
    def _put(self, key: str, blob: bytes) -> None:
        """Upload a data object: inline, or into the uploader's window.
        Runs on the commit thread only."""
        if self._journal.completed(key, blob):
            return  # durably uploaded by the interrupted run
        uploads = self._uploads
        if uploads is None:
            self._upload(key, blob, self._app)
            return
        # Backpressure, and fail fast: a full window (or a failed PUT)
        # waits on the oldest job, and a failure raises from there.
        while uploads and (len(uploads) >= _UPLOAD_QUEUE_DEPTH
                           or self._upload_failed):
            self._settle(uploads.popleft())
        uploads.append(self._uploader.submit(self._upload_job, key, blob,
                                             self._app))
        if self.tracer.enabled:
            self.tracer.metrics.gauge("uploader_queue_depth").set(
                len(uploads))

    def _upload_job(self, key: str, blob: bytes, app: Optional[str]) -> None:
        """One job on the uploader thread.  Once a PUT has failed, the
        jobs queued behind it skip theirs."""
        if self._upload_failed:
            return
        start = time.perf_counter()
        try:
            self._upload(key, blob, app)
        except BaseException:
            self._upload_failed = True
            raise
        finally:
            self._upload_busy += time.perf_counter() - start

    @staticmethod
    def _settle(future: Future) -> None:
        """Wait for one pipelined upload; re-raise its failure."""
        try:
            future.result()
        except Exception as exc:
            raise BackupError("pipelined upload failed") from exc

    @contextmanager
    def _upload_window(self, stats: SessionStats) -> Iterator[None]:
        """With ``pipeline_uploads``, run the session's data PUTs on one
        uploader thread; on a clean exit, wait for every one of them."""
        if not self.config.pipeline_uploads:
            yield
            return
        self._uploader = ThreadPoolExecutor(
            1, thread_name_prefix="aa-uploader")
        self._uploads = deque()
        self._upload_failed = False
        self._upload_busy = 0.0
        try:
            yield
            while self._uploads:
                self._settle(self._uploads.popleft())
        finally:
            # On an error this drops the queued PUTs and waits only for
            # the one running.
            self._uploader.shutdown(wait=True, cancel_futures=True)
            self._uploader = self._uploads = None
            stats.stage_busy_seconds["upload"] = self._upload_busy

    def _upload(self, key: str, blob: bytes, app: Optional[str]) -> None:
        """One durable upload: PUT, then journal it.  Runs on the
        commit thread, or on the uploader's with ``pipeline_uploads``."""
        attrs = {"key": key, "bytes": len(blob)}
        if app is not None:
            attrs["app"] = app
        with self.tracer.span("upload", **attrs):
            with self._cloud_lock:
                self._journal.put(key, blob)

    def _chunker_for(self, policy: DedupPolicy) -> Chunker:
        key = (policy.chunker, tuple(sorted(policy.chunker_params.items())))
        # Prepare workers race on first use of a policy; chunkers
        # themselves are stateless per call.
        with self._chunkers_lock:
            chunker = self._chunkers.get(key)
            if chunker is None:
                chunker = self._chunkers[key] = policy.make_chunker()
                chunker.tracer = self.tracer
        return chunker

    # -- session open ---------------------------------------------------
    def _open(self, warnings: list) -> None:
        """Read the store at session open, the one place a client does.

        The first open numbers containers after the store's (unless the
        constructor was given a first id; a failed listing raises, as
        reusing a live id would overwrite data), rebuilds the index and
        takes the newest retained manifest as the previous one when this
        scheme wrote it.  At a later open a changed (or unreadable) GC
        epoch means a sweep may have deleted extents the index and
        previous manifest name: both are dropped, and a dropped index (a
        failed session drops one too) is rebuilt from the manifests,
        which GC trims before it moves the epoch.  An open that raises
        leaves the client unopened, so the next one retries."""
        try:
            epoch = read_epoch(self.cloud)
        except CloudError as exc:
            warnings.append(f"GC epoch unreadable (rebuilding the index): "
                            f"{exc}")
            epoch = -1  # never an epoch: the next read rebuilds
        first = self._epoch is None
        if not first and (epoch != self._epoch or epoch == -1):
            self._prev_manifest, self._index_stale = None, True
        if first and self._containers is not None \
                and self._first_container_id is None:
            self._containers.set_next_id(max(
                naming.next_container_ids(self.cloud).values(), default=0))
        if self._index_stale:
            newest = self._rebuild_index()
            if first:
                self._prev_manifest = (
                    newest if newest is not None
                    and newest.scheme == self.config.name else None)
        self._epoch = epoch

    def _abandon(self) -> None:
        """Forget what a session that failed before its manifest placed:
        the index, which may name uploads that never became durable, is
        replaced unflushed and unclosed (a fleet front's offers go with
        it) and rebuilt at the next session open, which drops the open
        containers.  The journal's partial segment goes up."""
        self.index = AppAwareIndex(factory=self._index_factory,
                                   tracer=self.tracer)
        self._index_stale = True
        self._journal.flush()

    def _reissues(self, first_id: int) -> bool:
        """Whether rewinding numbering to ``first_id`` reissues an id in
        its lane that the index or any manifest (an unreadable one
        counts) names: a later session, by any client, committed."""
        if self._containers is None:
            return False
        lane = range(first_id, (first_id // naming.CONTAINER_ID_STRIDE + 1)
                     * naming.CONTAINER_ID_STRIDE)
        marked = mark_store(StoreWalk(self.cloud))
        return bool(marked.problems) or any(
            cid in lane for cid in chain(marked.containers, (
                entry.container_id for _, entry in self.index.entries())))

    # -- the session ----------------------------------------------------
    def backup(self, source: Iterable[SourceFile],
               session_id: int | None = None) -> SessionStats:
        """Run one backup session over ``source``; returns its stats.
        The session id defaults to the one after every session retained
        in the store or committed by this client."""
        with self.tracer.span("session", scheme=self.config.name) as span:
            return self._session(source, session_id, span)

    def _session(self, source: Iterable[SourceFile],
                 session_id: Optional[int], span) -> SessionStats:
        cfg = self.config
        # Simulated runs stamp manifests with virtual time so serialized
        # output (and therefore byte accounting) is fully deterministic;
        # real deployments keep the wall clock.
        clock = getattr(self.cloud, "clock", None)
        created = clock.now() if clock is not None else time.time()
        puts_before = self.cloud.stats.put_requests
        up_before = self.cloud.stats.bytes_uploaded
        warnings: list = []
        self._open(warnings)
        if session_id is None:
            session_id = self._next_session
        span.set("session", session_id)
        stats = SessionStats(session_id=session_id, scheme=cfg.name,
                             warnings=warnings)
        manifest = Manifest(session_id, cfg.name, created=created)
        self.index.reset_stats()
        first_id = (self._containers.next_container_id
                    if self._containers is not None else 0)
        # An interrupted run's journal rewinds numbering to its first
        # container, so the digest check skips its durable uploads;
        # renumbering also drops what a failed session left open.
        journal = self._journal = SessionJournal.load(
            self.cloud, session_id, first_id, stale=self._reissues)
        if self._containers is not None:
            self._containers.set_next_id(journal.first_container_id)
        journal.drop_lost()
        dedup_watch = Stopwatch().start()
        try:
            with self._upload_window(stats):
                self._commit_files(source, stats, manifest)
                if self._containers is not None:
                    self._containers.flush()
                dedup_watch.stop()  # the wait for the WAN is not dedup
            stats.resume_skipped_objects = self._journal.skipped_objects
            stats.resume_skipped_bytes = self._journal.skipped_bytes

            # Manifest upload: the commit record, which consumes the id
            # (a failed session gives it back, so the next auto id
            # resumes it).  Never rewind: later auto ids must not
            # overwrite newer manifests.
            self._next_session = max(self._next_session, session_id + 1)
            manifest_blob = manifest.to_json().encode("utf-8")
            with self.tracer.span("manifest", bytes=len(manifest_blob)):
                self.cloud.put(naming.manifest_key(session_id),
                               manifest_blob)
            self._journal.commit()
            stats.warnings.extend(self._journal.warnings)
        except BaseException:
            self._abandon()
            raise

        # Merge index accounting into the op counters.
        idx_stats = self.index.combined_stats()
        stats.ops.index_lookups += idx_stats.lookups
        stats.ops.index_hits += idx_stats.hits
        stats.ops.index_disk_probes += idx_stats.disk_probes

        stats.dedup_wall_seconds = dedup_watch.elapsed
        stats.put_requests = self.cloud.stats.put_requests - puts_before
        stats.bytes_uploaded = self.cloud.stats.bytes_uploaded - up_before
        # The manifest upload committed the session: its recipes are
        # what the next session replays.
        self._prev_manifest = manifest
        return stats

    # -- the stage graph ------------------------------------------------
    def _commit_files(self, source: Iterable[SourceFile],
                      stats: SessionStats, manifest: Manifest) -> None:
        """The one commit loop: every file, strictly in source order.

        All shared dedup state — index, container streams, manifest —
        is touched here and only here, on the calling
        thread.  Container ids and offsets, and therefore manifest
        bytes, depend on nothing but the source order, whichever way
        :meth:`_staged` runs the CPU stages (see docs/PIPELINE.md).  A
        file whose read fails is left out: no manifest entry, no counts,
        one warning naming it.
        """
        # After an error, closing the iterator is what stops the prepare
        # pool (see the ``finally`` in :meth:`_staged`).
        with closing(self._staged(source, stats)) as items:
            for item in items:
                sf, app = item.sf, item.app
                unique_before = stats.bytes_unique
                try:
                    entry = (self._replay_cached(item, stats)
                             if item.replay is not None else None)
                    if entry is None:
                        entry = self._commit_fresh(item, stats)
                except _Unreadable as exc:
                    stats.warnings.append(str(exc))
                    continue
                stats.files_total += 1
                stats.bytes_scanned += sf.size
                stats.note_app(app.label, sf.size,
                               stats.bytes_unique - unique_before)
                manifest.add(entry)

    def _admit(self, sf: SourceFile) -> WorkItem:
        """Classify and plan one source file.  With the stat cache or
        Jungle-Disk change detection, the previous manifest's entry for
        an unchanged file rides along as ``item.replay``: the file skips
        the stages and that recipe is replayed at commit time."""
        app = classify_name(sf.path)
        cfg, prev = self.config, self._prev_manifest
        replays = prev is not None and (cfg.stat_cache
                                        or cfg.incremental_only)
        cached = prev.get(sf.path) if replays else None
        if cached is not None and not unchanged(cached, sf.size,
                                                sf.mtime_ns):
            cached = None
        return WorkItem(sf, app, replay=cached,
                        plan=cfg.plan_file(app, sf.size))

    def _staged(self, source: Iterable[SourceFile],
                stats: SessionStats) -> Iterator[WorkItem]:
        """Source-ordered work items for the commit loop.

        With one worker the items come out unprepared and the commit
        loop runs read → chunk → hash inline (:meth:`_commit_fresh`).
        Otherwise each admitted file is one :meth:`_prepare` job on a
        pool of ``parallel_workers`` threads and items are yielded,
        prepared, **strictly in source order**; a stage error re-raises
        here, at its own file's turn (a failed read only drops its file,
        with a warning).  The source-ordered window of
        in-flight files is the one bound on resident payloads and on
        how far the pool runs ahead of the commit loop.  None of the
        stages touches shared dedup state.
        """
        workers = self.config.parallel_workers
        if workers == 1:
            yield from map(self._admit, source)
            return
        pool = ThreadPoolExecutor(workers, thread_name_prefix="aa-prepare")

        def enqueue(sf: SourceFile) -> tuple:
            item = self._admit(sf)
            if item.replay is not None:  # never enters the pool
                return item, None
            item.local = SessionStats(stats.session_id, stats.scheme)
            return item, pool.submit(self._prepare, item)

        files = iter(source)
        busy = stats.stage_busy_seconds
        busy.update(read=0.0, chunk=0.0, hash=0.0, commit=0.0)
        try:
            # The window: files running, or prepared and waiting their
            # turn; one in per one out.  Its size was chosen by
            # measurement (docs/PIPELINE.md, *Backpressure*).
            pending = deque(map(enqueue, islice(files, 6 * workers)))
            while pending:
                item, future = pending.popleft()
                try:
                    if future is not None:
                        for stage, seconds in future.result().items():
                            busy[stage] += seconds
                except _Unreadable as exc:
                    stats.warnings.append(str(exc))
                else:
                    start = time.perf_counter()
                    yield item  # the commit loop works until it asks again
                    busy["commit"] += time.perf_counter() - start
                pending.extend(map(enqueue, islice(files, 1)))
        finally:
            # On a commit or stage error this cancels the queued jobs, so
            # a failed session stops promptly; it waits only for the at
            # most ``workers`` jobs already running.
            pool.shutdown(wait=True, cancel_futures=True)

    def _prepare(self, item: WorkItem) -> Dict[str, float]:
        """One pool job: a file's three CPU stages back to back on one
        worker.  Returns each stage's busy seconds."""
        seconds = {}
        for name, stage in (("read", self._read_file),
                            ("chunk", self._chunk_file),
                            ("hash", self._hash_file)):
            start = time.perf_counter()
            stage(item)
            seconds[name] = time.perf_counter() - start
        return seconds

    def _commit_fresh(self, item: WorkItem,
                      stats: SessionStats) -> FileEntry:
        """Commit a file with no usable cached recipe."""
        sf, app = item.sf, item.app
        # Uploads fired mid-file (a container sealing under this file's
        # chunks) carry the file's application in the trace.
        self._app = app.label
        try:
            if item.local is not None:  # prepared on the pool
                # Fold in everything the stages can record: work done
                # AND warnings/degradations.
                stats.ops.merge(item.local.ops)
                stats.warnings.extend(item.local.warnings)
                return self._place_file(item, stats)
            # Inline stages charge the session directly.
            item.local = stats
            with self.tracer.span("file", app=app.label,
                                  category=app.category.value,
                                  bytes=sf.size):
                if self.config.incremental_only:
                    return self._place_incremental(item, stats)
                self._read_file(item)
                self._chunk_file(item)
                self._hash_file(item)
                return self._place_file(item, stats)
        finally:
            self._app = None

    def _fingerprint(self, hash_name: str, payload: bytes, length: int,
                     app_label: str, stats: SessionStats) -> bytes:
        """Hash one extent, charged to op counters and timed under a
        ``hash`` span."""
        stats.ops.add_hashed(hash_name, length)
        with self.tracer.span("hash", app=app_label, algo=hash_name,
                              bytes=length):
            return get_hash(hash_name).hash(payload)

    # The three CPU stages.  They touch no shared dedup state (index,
    # containers), so they are safe on any thread; all
    # side effects are charged to ``item.local``.
    def _read_file(self, item: WorkItem) -> None:
        """Read stage: pull the file's bytes off the source device.  A
        file that vanished or became unreadable since the walk raises
        :class:`_Unreadable`; the commit loop leaves it out."""
        sf, stats = item.sf, item.local
        with self.tracer.span("read", app=item.app.label, bytes=sf.size):
            try:
                data = sf.read()
            except OSError as exc:
                raise _Unreadable(
                    f"{sf.path}: unreadable, left out of the session "
                    f"({exc})") from exc
        stats.ops.read_bytes += len(data)
        if len(data) != sf.size:
            stats.warnings.append(
                f"{sf.path}: size changed during read "
                f"(metadata {sf.size}, read {len(data)} bytes)")
        item.data = data

    def _chunk_file(self, item: WorkItem) -> None:
        """Chunk stage: tiny-file filter, then boundary scan.  Output
        (``item.raw``) awaits the hash stage."""
        data, item.data = item.data, None
        plan, stats = item.plan, item.local
        if plan.tiny:
            # The whole file is the single "chunk" the hash stage seals.
            item.raw = [data] if item.sf.size else []
            return
        chunker = self._chunker_for(plan.policy)
        if isinstance(chunker, ContentDefinedChunker):
            stats.ops.cdc_scanned_bytes += len(data)
        with self.tracer.span("chunk", app=item.app.label,
                              chunker=plan.policy.chunker,
                              bytes=len(data)):
            item.raw = chunker.chunk(data)

    def _hash_file(self, item: WorkItem) -> None:
        """Hash stage: seal + fingerprint every chunk of ``item.raw``."""
        raw, item.raw = item.raw, None
        stats, app_label = item.local, item.app.label
        if item.plan.tiny:
            for data in raw:
                payload, key = self._seal(data)
                fp = self._fingerprint("sha1", payload, len(payload),
                                       app_label, stats)
                item.chunks.append((fp, payload, key, len(payload)))
            return
        hash_name = item.plan.policy.hash_name
        for chunk in raw:
            payload, key = self._seal(chunk.data)
            fp = self._fingerprint(hash_name, payload, chunk.length,
                                   app_label, stats)
            stats.ops.chunks_produced += 1
            if self.tracer.enabled:
                self.tracer.metrics.histogram(
                    "chunk_bytes", CHUNK_SIZE_BUCKETS).observe(chunk.length)
            item.chunks.append((fp, payload, key, chunk.length))

    def _entry_for(self, item: WorkItem, refs: list | None = None,
                   tiny: bool = False) -> FileEntry:
        sf, app = item.sf, item.app
        return FileEntry(path=sf.path, size=sf.size, mtime_ns=sf.mtime_ns,
                         app=app.label, category=app.category.value,
                         refs=refs if refs is not None else [], tiny=tiny)

    def _place_file(self, item: WorkItem,
                    stats: SessionStats) -> FileEntry:
        """Placement: dedup against the index, store unique data.

        Must run on the coordinator thread — it mutates the index and
        the container streams, and the order of these mutations
        determines manifest bytes.
        """
        plan = item.plan
        entry = self._entry_for(item, tiny=plan.tiny)
        if plan.tiny:
            stats.files_tiny += 1
            for fp, payload, key, _length in item.chunks:
                ref = self._ref(fp, len(payload), self._store(
                    fp, payload, plan.namespace, tiny_file=True))
                entry.refs.append(self._attach_key(ref, key))
                stats.bytes_unique += len(payload)
            return entry

        # Application-aware dedup.  The file's fingerprints are
        # announced once so a subindex that batches (a fleet client's
        # directory round trip) pays per file, not per chunk.
        namespace = plan.namespace
        self.index.begin_batch(namespace, [c[0] for c in item.chunks])
        for fp, payload, key, length in item.chunks:
            existing = self.index.lookup(namespace, fp)
            if existing is not None:
                ref = self._ref(fp, existing.length, existing)
            else:
                ref = self._ref(fp, len(payload),
                                self._store(fp, payload, namespace))
                stats.bytes_unique += length
                stats.chunks_unique += 1
                self.index.insert(namespace, _index_entry(ref))
            entry.refs.append(self._attach_key(ref, key))
        return entry

    def _place_incremental(self, item: WorkItem,
                           stats: SessionStats) -> FileEntry:
        """Jungle-Disk mode: whole-file upload of anything new or
        modified (unchanged files were replayed) — one object per file,
        or one container extent when the scheme packs containers."""
        sf = item.sf
        self._read_file(item)
        data, item.data = item.data, None
        entry = self._entry_for(item)
        if sf.size:
            fp = self._fingerprint("sha1", data, len(data),
                                   item.app.label, stats)
            key = naming.file_key(stats.session_id, sf.path)
            entry.refs.append(self._ref(fp, len(data), self._store(
                fp, data, item.plan.namespace, key), key))
            stats.bytes_unique += len(data)
        return entry

    # -- convergent encryption hooks (secure dedup, paper Sec. VI) ------
    def _seal(self, plaintext: bytes) -> tuple:
        """Convergently encrypt when configured; returns
        ``(stored_bytes, chunk_key_or_None)``."""
        if not self.config.encrypt_chunks:
            return plaintext, None
        return ConvergentCipher.seal(plaintext)

    def _attach_key(self, ref: ChunkRef, key: Optional[bytes]) -> ChunkRef:
        """Bind the wrapped chunk key into a recipe reference."""
        if key is None:
            return ref
        assert self.master_key is not None
        return replace(ref, wrapped_key=wrap_key(key, self.master_key,
                                                 ref.fingerprint))

    # -- unchanged-file replay (see repro.core.filecache) ----------------
    def _replay_cached(self, item: WorkItem,
                       stats: SessionStats) -> Optional[FileEntry]:
        """Replay an unchanged file's recipe from the previous manifest.

        A dedup scheme first revalidates it against the index and
        returns ``None`` on a stale hit (caller runs the full pipeline);
        Jungle Disk keeps no index.  On a hit the file is never
        ``read()``, chunked or hashed, and the index is only read; the
        dedup accounting still sees the file's logical bytes.
        """
        sf, app, cached = item.sf, item.app, item.replay
        tracer = self.tracer
        if not self.config.incremental_only and not revalidate(
                cached, self.index, item.plan.namespace):
            stats.statcache_stale += 1
            if tracer.enabled:
                tracer.metrics.counter("statcache_stale_total").inc()
            return None
        stats.files_unchanged += 1
        if cached.tiny:
            stats.files_tiny += 1
        with tracer.span("statcache.replay", app=app.label,
                         bytes=sf.size, refs=len(cached.refs)):
            pass
        if tracer.enabled:
            tracer.metrics.counter("statcache_hits_total").inc()
        return self._entry_for(item, list(cached.refs), cached.tiny)

    # -- put bytes, make ref ---------------------------------------------
    def _store(self, extent_id: bytes, blob: bytes, stream: str,
               key: Optional[str] = None, *, tiny_file: bool = False):
        """Put one unique extent's bytes: a container append, or — for
        schemes without containers — a standalone object under ``key``
        (by default the chunk key of ``extent_id``).  Returns where the
        bytes landed, for :meth:`_ref`."""
        if self._containers is not None:
            return self._containers.add(extent_id, blob, stream=stream,
                                        tiny_file=tiny_file)
        self._put(key or naming.chunk_key(extent_id), blob)
        return None

    def _ref(self, fp: bytes, length: int, loc,
             key: Optional[str] = None) -> ChunkRef:
        """The one place a recipe reference is built.  ``loc`` (what
        :meth:`_store` returned, or an index hit) locates the extent
        when the scheme uses containers; otherwise the reference names
        the standalone object ``key`` (by default ``fp``'s chunk key)."""
        if self._containers is not None:
            return ChunkRef(fp, length, loc.container_id, loc.offset)
        return ChunkRef(fp, length, object_key=key or naming.chunk_key(fp))

    # ------------------------------------------------------------------
    def _rebuild_index(self) -> Optional[Manifest]:
        """Replace the index with one filled from the client's retained
        manifests: each ref this scheme could have placed goes into the
        subindex :meth:`SchemeConfig.plan_file` routes its file to, the
        newest session winning.  GC keeps what they name, so all of it
        is live.  The session counter moves past every retained
        session, never back.  Returns the newest manifest."""
        cfg = self.config
        index = AppAwareIndex(factory=self._index_factory,
                              tracer=self.tracer)
        newest: Optional[Manifest] = None
        for session_id in naming.session_ids(self.cloud):
            newest = Manifest.from_json(
                self.cloud.get(naming.manifest_key(session_id)))
            self._next_session = max(self._next_session, session_id + 1)
            for entry in newest:
                plan = cfg.plan_file(classify_name(entry.path), entry.size)
                if not entry.tiny and plan.policy is not None:
                    index.subindex(plan.namespace).load(
                        map(_index_entry, filter(self._owns, entry.refs)))
        self.index, self._index_stale = index, False
        return newest

    def _owns(self, ref: ChunkRef) -> bool:
        """Whether an index hit on ``ref`` rebuilds it: a full extent
        stored as this scheme stores one (another may share the store)."""
        return (ref.in_container if self._containers is not None
                else ref.object_key == naming.chunk_key(ref.fingerprint))

    def close(self) -> None:
        """Flush and close the index.  No container is open here: a
        session seals every one it opened, or fails and leaves its open
        ones to be dropped."""
        self.index.flush()
        self.index.close()
