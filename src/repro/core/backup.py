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
   commit loop: replay an unchanged file's recipe, or place its chunks
   against the per-app subindex (unique CDC/SC chunks optionally pass
   the :class:`~repro.delta.DeltaStage` first);
4. **container management** — unique data accumulates into 1 MB padded
   containers, optionally sealed and uploaded by background workers
   overlapping deduplication (the paper's pipelined design);
5. **manifest + periodic index synchronisation** to the cloud.

All work is charged to :class:`~repro.core.stats.OpCounters` so the
virtual platform model can price a session on the paper's hardware.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import replace
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.chunking.base import Chunker
from repro.chunking.cdc import ContentDefinedChunker
from repro.classify.filetype import classify_name
from repro.classify.policy import DedupPolicy
from repro.container.manager import ContainerManager
from repro.core import naming
from repro.cloud.retry import RetryPolicy
from repro.core.filecache import FileCache, read_epoch, unchanged
from repro.core.journal import SessionJournal
from repro.core.options import SchemeConfig, aa_dedupe_config
from repro.core.pipeline import BackgroundWorker, WorkItem
from repro.core.recipe import ChunkRef, FileEntry, Manifest
from repro.core.source import SourceFile
from repro.core.stats import SessionStats
from repro.core.sync import IndexSynchronizer
from repro.delta import DeltaStage
from repro.errors import BackupError, CloudError
from repro.hashing.base import get_hash
from repro.index.appaware import AppAwareIndex
from repro.index.base import ChunkIndex, IndexEntry
from repro.obs.metrics import CHUNK_SIZE_BUCKETS
from repro.obs.tracer import NOOP_TRACER
from repro.secure import ConvergentCipher, wrap_key
from repro.util.timer import ConcurrentStopwatch, Stopwatch

__all__ = ["BackupClient"]

#: File-level tier policy used by ``file_level_first`` schemes (SAM).
_FILE_TIER_POLICY = DedupPolicy("wfc", "sha1")

#: Sealed containers / blobs that may wait for the WAN before the commit
#: loop blocks (``pipeline_uploads``).
_UPLOAD_QUEUE_DEPTH = 4


class BackupClient:
    """Stateful backup client for one scheme against one cloud store.

    The client owns the chunk index (layout per config), the container
    manager (container ids persist across sessions) and the manifest
    history; call :meth:`backup` once per session with a source snapshot.
    """

    def __init__(self,
                 cloud,
                 config: SchemeConfig | None = None,
                 index_factory: Callable[[str], ChunkIndex] | None = None,
                 master_key: bytes | None = None,
                 retry: Optional[RetryPolicy] = None,
                 tracer=None,
                 first_container_id: Optional[int] = None,
                 ) -> None:
        self.cloud = cloud
        self.config = config or aa_dedupe_config()
        if self.config.encrypt_chunks and not master_key:
            raise BackupError(
                "encrypt_chunks requires a master_key")
        self.master_key = master_key
        #: Optional client-side retry for the upload path.  When the
        #: cloud facade already retries (SimulatedCloud(retry=...)),
        #: leave this None — stacking both would retry retries.
        self.retry = retry
        #: Profiling tracer, propagated into every instrumented layer
        #: this client owns (index, containers, chunkers, delta stage).
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        if retry is not None and retry.tracer is NOOP_TRACER:
            retry.tracer = self.tracer
        self.index = AppAwareIndex(factory=index_factory,
                                   tracer=self.tracer)
        self.manifests: Dict[int, Manifest] = {}
        self._prev_manifest: Optional[Manifest] = None
        self._next_session = 0
        self._chunkers: Dict[tuple, Chunker] = {}
        self._chunkers_lock = threading.Lock()
        #: SAM-style file-level tier: whole-file fingerprint -> recipe.
        self._file_tier: Dict[bytes, list] = {}
        self._uploader: Optional[BackgroundWorker] = None
        self._upload_watch = ConcurrentStopwatch()
        self._cloud_lock = threading.Lock()
        # -- cross-session stat cache (see repro.core.filecache) --------
        self._filecache: Optional[FileCache] = (
            FileCache(self.config.name) if self.config.stat_cache
            else None)
        #: Replays allowed this session (epoch validated, cache warm).
        self._replay_enabled = False
        #: Per-thread application label of the file being committed, so
        #: uploads triggered mid-file can be attributed to its app.
        self._app_ctx = threading.local()
        self._journal: Optional[SessionJournal] = None
        self._sync = IndexSynchronizer(cloud, retry=retry)
        #: The store's GC epoch when this client's state was last
        #: reconciled with it (``None``: no store state held yet).
        self._epoch: Optional[int] = None
        self._delta: Optional[DeltaStage] = (
            DeltaStage(self.config.delta_max_chain, tracer=self.tracer)
            if self.config.delta_compress else None)
        # Multi-client deployments sharing one container pool assign
        # each client a disjoint id range up front; single clients probe
        # the cloud so a fresh client never reuses a live id.
        self._containers = ContainerManager(
            upload=lambda container_id, blob: self._put(
                naming.container_key(container_id), blob),
            container_size=self.config.container_size,
            pad_containers=self.config.pad_containers,
            first_container_id=(first_container_id
                                if first_container_id is not None
                                else self._resume_container_id()),
            tracer=self.tracer,
            # Sealing (serialize + pad) moves off the commit thread only
            # in pipelined mode; the paper-faithful serial schemes keep
            # synchronous sealing so their accounting is unperturbed.
            pack_async=self.config.pipeline_uploads,
        ) if self.config.use_containers else None

    def _resume_container_id(self) -> int:
        """Continue container numbering after any containers already in
        the cloud — a fresh client (e.g. after disaster recovery) must
        never reuse an id, or it would overwrite live data.  For the
        same reason a failed listing raises: guessing 0 is the one
        answer that is never safe."""
        ids = map(naming.container_id_of,
                  self._cloud_call(self.cloud.list,
                                   naming.CONTAINER_PREFIX))
        return max((cid for cid in ids if cid is not None),
                   default=-1) + 1

    # -- cloud I/O ------------------------------------------------------
    def _cloud_call(self, fn, *args):
        """One cloud request, retried per the client retry policy if set."""
        if self.retry is not None:
            return self.retry.call(fn, *args)
        return fn(*args)

    def _cloud_put(self, key: str, blob: bytes) -> None:
        """One timed cloud PUT."""
        with self._upload_watch:
            self._cloud_call(self.cloud.put, key, blob)

    def _put(self, key: str, blob: bytes) -> None:
        """Upload a data object: inline, or queued to the uploader."""
        journal = self._journal
        if journal is not None and journal.completed(key, blob):
            return  # durably uploaded by the interrupted run
        app = getattr(self._app_ctx, "label", None)
        uploader = self._uploader
        if uploader is None:
            self._upload(key, blob, app)
            return
        if self.tracer.enabled:
            self.tracer.metrics.gauge("uploader_queue_depth").set(
                uploader.queue_depth + 1)
        uploader.submit(key, blob, app)

    def _upload(self, key: str, blob: bytes, app: Optional[str]) -> None:
        """One durable upload: PUT, then journal it.  Runs on the
        calling thread, or on the uploader's with ``pipeline_uploads``."""
        attrs = {"key": key, "bytes": len(blob)}
        if app is not None:
            attrs["app"] = app
        journal = self._journal
        with self.tracer.span("upload", **attrs):
            with self._cloud_lock:
                self._cloud_put(key, blob)
                if journal is not None:
                    journal.record(key, blob)

    def _open_journal(self, session_id: int) -> SessionJournal:
        """Open (or resume) the session journal for ``session_id``.

        When an interrupted run left a journal in the cloud, container
        numbering is rewound to that run's starting id so re-generated
        containers land on their original keys — the digest check in
        :meth:`SessionJournal.completed` then skips every upload the
        crashed run already made durable.
        """
        first_id = (self._containers.next_container_id
                    if self._containers is not None else 0)
        journal = SessionJournal.load(self.cloud, session_id,
                                      first_container_id=first_id)
        if journal.resumed and self._containers is not None:
            self._containers.set_next_id(journal.first_container_id)
        if not journal.resumed:
            # Make the starting container id durable before the first
            # upload, so even an immediate crash resumes correctly.
            journal.flush()
        return journal

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

    # -- the GC epoch ---------------------------------------------------
    def _open_epoch(self, warnings: list) -> Optional[int]:
        """Read the store's GC epoch at session open.

        A changed epoch means a sweep ran since the client last looked,
        so its copies of store state may point into deleted extents:
        they are reconciled before the session places anything.
        Returns the epoch, or ``None`` when it is unreadable (the stat
        cache sits the session out and the next session reconciles).
        """
        try:
            epoch = self._cloud_call(read_epoch, self.cloud)
        except CloudError as exc:
            warnings.append(f"stat cache disabled this session "
                            f"(GC epoch unreadable): {exc}")
            self._epoch = -1  # never an epoch: the next read reconciles
            return None
        if self._epoch is not None and epoch != self._epoch:
            self._forget_swept()
        self._epoch = epoch
        return epoch

    def _forget_swept(self) -> None:
        """Reconcile client-side state with a store a GC sweep changed.

        Index entries whose container (object-mode schemes: whose chunk
        object) the store no longer lists are discarded, after one LIST;
        state no index lookup guards is dropped whole — the SAM file
        tier, the delta stage's bases and delta refs, and the previous
        manifest Jungle-Disk change detection replays.  The stat cache
        checks the epoch itself (:meth:`FileCache.open_session`).
        """
        containers = self._containers is not None
        listed = set(self._cloud_call(
            self.cloud.list, naming.CONTAINER_PREFIX if containers
            else naming.CHUNK_PREFIX))
        for app, entry in list(self.index.entries()):
            key = (naming.container_key(entry.container_id) if containers
                   else naming.chunk_key(entry.fingerprint))
            if key not in listed:
                self.index.subindex(app).discard(entry.fingerprint)
        self._file_tier.clear()
        self._prev_manifest = None
        if self._delta is not None:
            self._delta = DeltaStage(self.config.delta_max_chain,
                                     tracer=self.tracer)

    # -- the session ----------------------------------------------------
    def backup(self, source: Iterable[SourceFile],
               session_id: int | None = None) -> SessionStats:
        """Run one backup session over ``source``; returns its stats."""
        cfg = self.config
        if session_id is None:
            session_id = self._next_session
        # Never rewind the auto counter: re-running an older explicit id
        # must not make later auto ids collide with (and silently
        # overwrite) newer manifests.
        self._next_session = max(self._next_session, session_id + 1)
        with self.tracer.span("session", scheme=cfg.name,
                              session=session_id):
            return self._session(source, session_id)

    def _session(self, source: Iterable[SourceFile],
                 session_id: int) -> SessionStats:
        cfg = self.config
        stats = SessionStats(session_id=session_id, scheme=cfg.name)
        # Simulated runs stamp manifests with virtual time so serialized
        # output (and therefore byte accounting) is fully deterministic;
        # real deployments keep the wall clock.
        clock = getattr(self.cloud, "clock", None)
        created = clock.now() if clock is not None else time.time()
        manifest = Manifest(session_id, cfg.name, created=created)
        self.index.reset_stats()
        puts_before = self.cloud.stats.put_requests
        up_before = self.cloud.stats.bytes_uploaded
        pack_before = (self._containers.pack_busy_seconds
                       if self._containers is not None else 0.0)
        self._upload_watch = ConcurrentStopwatch()
        epoch = self._open_epoch(stats.warnings)
        cache = self._filecache
        self._replay_enabled = (cache is not None
                                and cache.open_session(epoch))
        self._journal = self._open_journal(session_id) \
            if cfg.resumable else None
        uploader = None
        if cfg.pipeline_uploads:
            uploader = self._uploader = BackgroundWorker(
                self._upload, name="aa-uploader", what="pipelined upload",
                depth=_UPLOAD_QUEUE_DEPTH)
        dedup_watch = Stopwatch().start()
        try:
            self._commit_files(source, stats, manifest)
            if self._containers is not None:
                self._containers.flush()
        finally:
            dedup_watch.stop()
            if uploader is not None:
                self._uploader = None
                uploader.close()
                busy = stats.stage_busy_seconds
                busy["upload"] = uploader.busy_seconds
                if self._containers is not None:
                    pack = self._containers.pack_busy_seconds - pack_before
                    if pack > 0:
                        busy["pack"] = pack
            if self._journal is not None:
                stats.resume_skipped_objects = \
                    self._journal.skipped_objects
                stats.resume_skipped_bytes = self._journal.skipped_bytes

        # Manifest upload (timed like any other transfer).  Its success
        # is the session's commit record: afterwards the journal (if
        # any) is obsolete and is deleted.
        manifest_blob = manifest.to_json().encode("utf-8")
        with self.tracer.span("manifest", bytes=len(manifest_blob)):
            self._cloud_put(naming.manifest_key(session_id), manifest_blob)
        if self._journal is not None:
            self._journal.commit()
            stats.warnings.extend(self._journal.warnings)
            self._journal = None

        # The manifest upload committed the session, so the recipes
        # staged during it become the next session's stat cache.
        if cache is not None:
            cache.close_session(self._cloud_put, stats.warnings,
                                self.tracer)
        # Every data, manifest and stat-cache PUT is behind us.
        stats.upload_wall_seconds = self._upload_watch.elapsed

        # Periodic index replication for disaster recovery (Sec. III-E).
        # A failed push degrades to a warning: dedup continuity is
        # recoverable (the next sync retries the stale subindices), so
        # it must not fail an otherwise-complete backup.
        if (cfg.index_sync_interval
                and (session_id + 1) % cfg.index_sync_interval == 0):
            try:
                with self.tracer.span("index.sync"):
                    self._sync.push(self.index)
            except CloudError as exc:
                stats.warnings.append(
                    f"index sync failed (retried next sync): {exc}")

        # Merge index accounting into the op counters.
        idx_stats = self.index.combined_stats()
        stats.ops.index_lookups += idx_stats.lookups
        stats.ops.index_hits += idx_stats.hits
        stats.ops.index_disk_probes += idx_stats.disk_probes

        stats.dedup_wall_seconds = dedup_watch.elapsed
        stats.put_requests = self.cloud.stats.put_requests - puts_before
        stats.bytes_uploaded = self.cloud.stats.bytes_uploaded - up_before
        self.manifests[session_id] = manifest
        self._prev_manifest = manifest
        return stats

    # -- the stage graph ------------------------------------------------
    def _commit_files(self, source: Iterable[SourceFile],
                      stats: SessionStats, manifest: Manifest) -> None:
        """The one commit loop: every file, strictly in source order.

        All shared dedup state — index, container streams, file tier,
        delta stage, manifest, stat cache — is touched here and only
        here, on the calling thread.  Container ids and offsets, and
        therefore manifest bytes, depend on nothing but the source
        order, whichever way :meth:`_staged` runs the CPU stages (see
        docs/PIPELINE.md).
        """
        cache = self._filecache
        # After an error, closing the iterator is what stops the prepare
        # pool (see the ``finally`` in :meth:`_staged`).
        with closing(self._staged(source, stats)) as items:
            for item in items:
                sf, app = item.sf, item.app
                stats.files_total += 1
                stats.bytes_scanned += sf.size
                unique_before = stats.bytes_unique
                entry = (self._replay_cached(item, stats)
                         if item.replay is not None else None)
                if entry is None:
                    entry = self._commit_fresh(item, stats)
                stats.note_app(app.label, sf.size,
                               stats.bytes_unique - unique_before)
                manifest.add(entry)
                if cache is not None:
                    cache.record(entry)

    def _admit(self, sf: SourceFile) -> WorkItem:
        """Classify and plan one source file.  A stat-cache match rides
        along as ``item.replay``: the file skips the stages and its
        cached recipe is replayed at commit time."""
        app = classify_name(sf.path)
        cached = (self._filecache.match(app.label, sf.path, sf.size,
                                        sf.mtime_ns)
                  if self._replay_enabled else None)
        return WorkItem(sf, app, replay=cached,
                        plan=self.config.plan_file(app, sf.size))

    def _staged(self, source: Iterable[SourceFile],
                stats: SessionStats) -> Iterator[WorkItem]:
        """Source-ordered work items for the commit loop.

        With one worker the items come out unprepared and the commit
        loop runs read → chunk → hash inline (:meth:`_commit_fresh`).
        Otherwise each admitted file is one :meth:`_prepare` job on a
        pool of ``parallel_workers`` threads and items are yielded,
        prepared, **strictly in source order**; a stage error re-raises
        here, at its own file's turn.  The source-ordered window of
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
                if future is not None:
                    for stage, seconds in future.result().items():
                        busy[stage] += seconds
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
        # The thread-local app label lets uploads fired mid-file (a
        # container sealing under this file's chunks) carry the right
        # application attribution in the trace.
        self._app_ctx.label = app.label
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
            self._app_ctx.label = None

    def _fingerprint(self, hash_name: str, payload: bytes, length: int,
                     app_label: str, stats: SessionStats) -> bytes:
        """Hash one extent, charged to op counters and timed under a
        ``hash`` span."""
        stats.ops.add_hashed(hash_name, length)
        with self.tracer.span("hash", app=app_label, algo=hash_name,
                              bytes=length):
            return get_hash(hash_name).hash(payload)

    # The three CPU stages.  They touch no shared dedup state (index,
    # containers, delta stage), so they are safe on any thread; all
    # side effects are charged to ``item.local``.
    def _read_file(self, item: WorkItem) -> None:
        """Read stage: pull the file's bytes off the source device."""
        sf, stats = item.sf, item.local
        with self.tracer.span("read", app=item.app.label, bytes=sf.size):
            data = sf.read()
        stats.ops.read_bytes += len(data)
        if len(data) != sf.size:
            stats.warnings.append(
                f"{sf.path}: size changed during read "
                f"(metadata {sf.size}, read {len(data)} bytes)")
        item.data = data

    def _chunk_file(self, item: WorkItem) -> None:
        """Chunk stage: tiny-file filter, file-tier probe prep, boundary
        scan.  Output (``item.raw``) awaits the hash stage."""
        data, item.data = item.data, None
        plan, stats = item.plan, item.local
        if plan.tiny:
            # The whole file is the single "chunk" the hash stage seals.
            item.raw = [data] if item.sf.size else []
            return
        if plan.file_tier:
            # Whole-file fingerprint for the probe placement performs.
            item.file_fp = self._fingerprint(
                _FILE_TIER_POLICY.hash_name, data, len(data),
                item.app.label, stats)
            # A known whole file will replay its tier recipe during
            # placement, so chunking it here would be wasted work — the
            # very work the tier exists to save.  Peeking at the tier is
            # safe: file_level_first is serial-only (ConfigError guards
            # the parallel combination), and the accounted probe still
            # happens in _place_file.
            if self._file_tier.get(item.file_fp) is not None:
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
        if raw is None:  # file-tier peek hit: nothing to hash
            return
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

        Must run on the coordinator thread — it mutates the index, the
        container streams, the SAM file tier and the delta stage, and
        the order of these mutations determines manifest bytes.
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

        # File-level tier (SAM): a whole-file hit replays the previous
        # recipe, skipping chunk-level dedup entirely — the tier saves
        # *work*, which is its purpose in SAM.
        if item.file_fp is not None:
            stats.ops.index_lookups += 1
            recipe = self._file_tier.get(item.file_fp)
            if recipe is not None:
                stats.ops.index_hits += 1
                entry.refs.extend(recipe)
                return entry

        # Application-aware dedup.  The file's fingerprints are
        # announced once so a subindex that batches (a fleet client's
        # directory round trip) pays per file, not per chunk.
        namespace = plan.namespace
        self.index.begin_batch(namespace, [c[0] for c in item.chunks])
        for fp, payload, key, length in item.chunks:
            existing = self.index.lookup(namespace, fp)
            if existing is not None:
                self.index.insert(namespace, existing.bumped())
                ref = self._ref(fp, existing.length, existing)
            else:
                ref = self._place_unique(item, fp, payload, length, stats)
            entry.refs.append(self._attach_key(ref, key))
        if item.file_fp is not None:
            self._file_tier[item.file_fp] = list(entry.refs)
        return entry

    def _place_incremental(self, item: WorkItem,
                           stats: SessionStats) -> FileEntry:
        """Jungle-Disk mode: metadata-based change detection, whole-file
        upload of anything new or modified."""
        sf = item.sf
        prev = (self._prev_manifest.get(sf.path)
                if self._prev_manifest is not None else None)
        if prev is not None and unchanged(prev, sf.size, sf.mtime_ns):
            stats.files_unchanged += 1
            return self._entry_for(item, list(prev.refs), prev.tiny)
        self._read_file(item)
        data, item.data = item.data, None
        entry = self._entry_for(item)
        if sf.size:
            fp = self._fingerprint("sha1", data, len(data),
                                   item.app.label, stats)
            key = naming.file_key(stats.session_id, sf.path)
            self._put(key, data)
            stats.bytes_unique += len(data)
            entry.refs.append(ChunkRef(fp, len(data), object_key=key))
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

    # -- stat-cache replay (see repro.core.filecache) -------------------
    def _replay_cached(self, item: WorkItem,
                       stats: SessionStats) -> Optional[FileEntry]:
        """Stat-cache fast path: replay an unchanged file's recipe.

        Returns ``None`` on a stale hit (caller runs the full pipeline).
        On a hit the file is never ``read()``, chunked or hashed;
        refcounts are still bumped and the dedup accounting still sees
        the file's logical bytes.
        """
        sf, app, cached = item.sf, item.app, item.replay
        tracer = self.tracer
        if not self._filecache.revalidate(cached, self.index,
                                          item.plan.namespace):
            stats.statcache_stale += 1
            self._filecache.discard(app.label, sf.path)
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
    def _place_unique(self, item: WorkItem, fp: bytes, payload: bytes,
                      length: int, stats: SessionStats) -> ChunkRef:
        """Place a chunk the exact index has never seen: in full, or —
        with delta compression — however the delta stage decides."""
        namespace = item.plan.namespace

        def store_full() -> ChunkRef:
            ref = self._ref(fp, len(payload),
                            self._store(fp, payload, namespace))
            stats.bytes_unique += length
            stats.chunks_unique += 1
            self.index.insert(namespace, IndexEntry(
                fp, max(ref.container_id, 0), ref.offset, ref.length))
            return ref

        if self._delta is None:
            return store_full()

        def store_delta(blob: bytes, base_ref: ChunkRef) -> ChunkRef:
            # The extent's identity is the digest of the blob itself so
            # scrub can verify it without resolving bases.
            digest = get_hash("sha1").hash(blob)
            key = naming.delta_key(digest)
            loc = self._store(digest, blob, namespace, key, delta=True)
            return self._ref(fp, len(payload), loc, key,
                             stored_length=len(blob), delta_base=base_ref)

        return self._delta.place(namespace, fp, payload,
                                 item.plan.policy.chunker, item.app.label,
                                 stats, store_full, store_delta)

    def _store(self, extent_id: bytes, blob: bytes, stream: str,
               key: Optional[str] = None, **flags):
        """Put one unique extent's bytes: a container append, or — for
        schemes without containers — a standalone object under ``key``
        (by default the chunk key of ``extent_id``).  Returns where the
        bytes landed, for :meth:`_ref`."""
        if self._containers is not None:
            return self._containers.add(extent_id, blob, stream=stream,
                                        **flags)
        self._put(key or naming.chunk_key(extent_id), blob)
        return None

    def _ref(self, fp: bytes, length: int, loc,
             key: Optional[str] = None, **delta) -> ChunkRef:
        """The one place a recipe reference is built.  ``loc`` (what
        :meth:`_store` returned, or an index hit) locates the extent
        when the scheme uses containers; otherwise the reference names
        the standalone object ``key`` (by default ``fp``'s chunk key)."""
        if self._containers is not None:
            return ChunkRef(fp, length, loc.container_id, loc.offset,
                            **delta)
        return ChunkRef(fp, length, object_key=key or naming.chunk_key(fp),
                        **delta)

    # ------------------------------------------------------------------
    def resume_from_cloud(self) -> int:
        """Rebuild dedup state from cloud replicas (new process/machine).

        Pulls every synced application subindex — and prunes what a GC
        sweep deleted under it, since replicas are never pruned in the
        cloud — loads the most recent manifest (for incremental change
        detection), reloads the persisted stat cache (so unchanged files
        skip re-chunking even across process restarts), and
        fast-forwards the session counter past existing manifests.
        Returns the number of index entries recovered.  Together with
        the containers being self-describing, this makes the client
        fully stateless across invocations — the CLI calls it on
        startup.
        """
        restored = self._sync.pull(self.index)
        self._epoch = self._cloud_call(read_epoch, self.cloud)
        self._forget_swept()
        if self._filecache is not None:
            self._filecache.load(self.cloud, self._epoch)
        latest_id = max(naming.session_ids(self.cloud), default=-1)
        if latest_id >= 0:
            manifest = Manifest.from_json(
                self.cloud.get(naming.manifest_key(latest_id)))
            self.manifests[latest_id] = manifest
            self._prev_manifest = manifest
            self._next_session = latest_id + 1
        return restored

    def close(self) -> None:
        """Flush containers/index and release resources."""
        if self._containers is not None:
            self._containers.close()
        self.index.flush()
        self.index.close()
