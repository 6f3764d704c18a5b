"""Staged backup pipeline: bounded queues, per-stage workers, abort.

With ``parallel_workers > 1`` the engine (``BackupClient._staged``) runs
the CPU half of a session — read → chunk → hash — on small per-stage
worker pools connected through bounded hand-off queues
(:class:`StagePipeline`).  A full queue blocks the upstream stage
(backpressure), so memory stays bounded no matter how fast one stage
runs.  With one worker the same stage callables run inline on the
coordinator and none of this machinery is built.

:class:`BackgroundWorker` is the other building block: one thread
behind one bounded queue, used for the two strictly-ordered downstream
stages (container pack and WAN upload).

Ordering is *not* a property of the queues: stages complete items out of
order whenever worker counts exceed one.  Determinism lives entirely in
the coordinator, which holds every in-flight :class:`WorkItem` in a
source-ordered window and commits them strictly in that order (see
docs/PIPELINE.md for the determinism argument).

Failure semantics:

* a stage callable raising marks only its own item failed; the error
  re-raises when the coordinator waits on that item;
* :meth:`StagePipeline.shutdown` with ``abort=True`` makes every worker
  drop queued items instead of processing them, so a failed session
  stops burning CPU on doomed work promptly;
* a worker thread dying from a machinery error (not a stage callable
  error) is detected by the liveness checks in :meth:`wait` and
  :meth:`shutdown` — the session fails instead of hanging forever.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import BackupError

__all__ = ["BackgroundWorker", "PipelineAborted", "StagePipeline",
           "WorkItem"]

#: Poll interval for abort-aware blocking waits (seconds).
_POLL = 0.05

#: Worker join grace on shutdown before declaring a stage hung.
_JOIN_TIMEOUT = 10.0

_SENTINEL = object()


class PipelineAborted(BackupError):
    """The pipeline was shut down before this item was processed."""


class WorkItem:
    """One source file moving through the stages.

    Stage callables mutate the item (``data`` after read, ``raw`` after
    chunk, ``chunks`` after hash) and the coordinator waits on ``done``.
    ``plan`` is the scheme's :class:`~repro.core.options.FilePlan` for
    the file.  ``local`` is the :class:`~repro.core.stats.SessionStats`
    the stages charge: a private one per item on the pools (stages never
    contend on the session totals; the coordinator merges it at commit
    time), the session's own when the stages run inline.
    """

    __slots__ = ("seq", "sf", "app", "plan", "replay", "local", "data",
                 "file_fp", "raw", "chunks", "error", "_done")

    def __init__(self, seq: int, sf, app, local=None,
                 replay=None, plan=None) -> None:
        self.seq = seq
        self.sf = sf
        self.app = app
        self.plan = plan
        #: Cached recipe to replay instead of running the stages.
        self.replay = replay
        self.local = local
        #: Read-stage output (dropped once chunked).
        self.data: Optional[bytes] = None
        #: SAM file-level-tier whole-file fingerprint (when probed).
        self.file_fp: Optional[bytes] = None
        #: Chunk-stage output awaiting fingerprints: raw chunk payloads
        #: in file order (``None`` before chunking, once hashed, and on
        #: a file-tier peek hit where nothing needs hashing).
        self.raw: Optional[list] = None
        #: Hash-stage output, in file order:
        #: (fingerprint, sealed payload, wrapped key, logical length).
        self.chunks: list = []
        self.error: Optional[BaseException] = None
        self._done = threading.Event()
        if replay is not None:  # never enters the stages
            self._done.set()

    def finish(self) -> None:
        self._done.set()

    def fail(self, exc: BaseException) -> None:
        self.error = exc
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)


class _Stage:
    """One stage: a bounded input queue and its worker pool."""

    __slots__ = ("name", "fn", "workers", "queue", "downstream",
                 "busy_seconds", "items", "threads", "_lock")

    def __init__(self, name: str, fn: Callable[[WorkItem], None],
                 workers: int, depth: int) -> None:
        self.name = name
        self.fn = fn
        self.workers = workers
        self.queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self.downstream: Optional["_Stage"] = None
        self.busy_seconds = 0.0
        self.items = 0
        self.threads: List[threading.Thread] = []
        self._lock = threading.Lock()

    def charge(self, seconds: float, processed: bool) -> None:
        with self._lock:
            self.busy_seconds += seconds
            if processed:
                self.items += 1


class StagePipeline:
    """Wire stages together and run them until :meth:`shutdown`.

    ``stages`` is an ordered sequence of ``(name, fn, workers, depth)``;
    items submitted to the first stage flow through all of them and set
    their ``done`` event after the last.
    """

    def __init__(self, stages: Sequence[Tuple[str, Callable[[WorkItem],
                                                            None],
                                              int, int]]) -> None:
        if not stages:
            raise BackupError("pipeline needs at least one stage")
        self._abort = threading.Event()
        self._machinery_error: Optional[BaseException] = None
        self._stages: List[_Stage] = [
            _Stage(name, fn, workers, depth)
            for name, fn, workers, depth in stages]
        for stage, downstream in zip(self._stages, self._stages[1:]):
            stage.downstream = downstream
        self._closed = False
        for stage in self._stages:
            for i in range(stage.workers):
                thread = threading.Thread(
                    target=self._worker, args=(stage,), daemon=True,
                    name=f"aa-{stage.name}-{i}")
                stage.threads.append(thread)
                thread.start()

    # -- worker side ----------------------------------------------------
    def _worker(self, stage: _Stage) -> None:
        try:
            while True:
                item = stage.queue.get()
                if item is _SENTINEL:
                    return
                if self._abort.is_set():
                    item.fail(PipelineAborted("pipeline aborted"))
                    continue
                start = time.perf_counter()
                try:
                    stage.fn(item)
                except BaseException as exc:
                    item.fail(exc)
                finally:
                    stage.charge(time.perf_counter() - start,
                                 processed=item.error is None)
                if item.error is not None:
                    continue
                if stage.downstream is None:
                    item.finish()
                else:
                    self._forward(stage.downstream, item)
        except BaseException as exc:  # machinery failure: die visibly
            if self._machinery_error is None:
                self._machinery_error = exc

    def _forward(self, downstream: _Stage, item: WorkItem) -> None:
        while True:
            try:
                downstream.queue.put(item, timeout=_POLL)
                return
            except queue.Full:
                if self._abort.is_set():
                    item.fail(PipelineAborted("pipeline aborted"))
                    return

    # -- coordinator side -----------------------------------------------
    def submit(self, item: WorkItem) -> None:
        """Hand an item to the first stage (blocks when it is full)."""
        first = self._stages[0].queue
        while True:
            if self._abort.is_set():
                raise PipelineAborted("pipeline aborted")
            if not self.alive():
                raise BackupError(
                    "pipeline stage worker died") from self._machinery_error
            try:
                first.put(item, timeout=_POLL)
                return
            except queue.Full:
                continue

    def wait(self, item: WorkItem) -> None:
        """Block until ``item`` clears the stages; re-raise its error.

        Guarded by worker liveness: if a stage thread dies from a
        machinery failure while the item is still pending, this raises
        instead of waiting forever.
        """
        while not item.wait(_POLL):
            if not self.alive():
                raise BackupError(
                    "pipeline stage worker died") from self._machinery_error
        if item.error is not None:
            raise item.error

    def alive(self) -> bool:
        """True while every stage still has at least one live worker."""
        if self._closed:
            return True
        return all(any(t.is_alive() for t in stage.threads)
                   for stage in self._stages)

    def shutdown(self, abort: bool = False) -> None:
        """Stop all workers and join them.

        ``abort=True`` (the error path) makes workers drop everything
        still queued — queued items are marked failed with
        :class:`PipelineAborted` and their stage callables never run, so
        a doomed session does not keep preparing work the coordinator
        will never commit.
        """
        if self._closed:
            return
        if abort:
            self._abort.set()
        for stage in self._stages:
            for _ in range(stage.workers):
                self._put_sentinel(stage)
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for stage in self._stages:
            for thread in stage.threads:
                thread.join(max(0.0, deadline - time.monotonic()))
                if thread.is_alive():
                    raise BackupError(
                        f"pipeline stage {stage.name!r} failed to stop")
        self._closed = True
        if self._machinery_error is not None and not abort:
            raise BackupError(
                "pipeline stage worker died") from self._machinery_error

    def _put_sentinel(self, stage: _Stage) -> None:
        while True:
            try:
                stage.queue.put(_SENTINEL, timeout=_POLL)
                return
            except queue.Full:
                if not any(t.is_alive() for t in stage.threads):
                    return  # nobody left to read it

    # -- instrumentation -------------------------------------------------
    def busy_seconds(self) -> Dict[str, float]:
        """Accumulated worker busy time per stage name."""
        return {stage.name: stage.busy_seconds for stage in self._stages}

    def items_processed(self) -> Dict[str, int]:
        """Items each stage processed successfully."""
        return {stage.name: stage.items for stage in self._stages}


class BackgroundWorker:
    """One daemon thread running ``fn(*job)`` for jobs taken, in order,
    from a bounded queue.

    :meth:`submit` blocks while the queue is full, so the producer can
    run at most ``depth`` jobs ahead.  Fails fast: after the first job
    error the worker *drops* all queued jobs (none of them runs) and new
    submits are rejected; the error re-raises, wrapped in ``error_cls``,
    from :meth:`check`/:meth:`submit`/:meth:`drain`/:meth:`close` until
    :meth:`reset`.  :meth:`close` always joins the thread, error or not,
    so no thread outlives its owner.

    Completion tracking is an outstanding-job counter under a condition
    variable rather than ``queue.join()``: every blocking wait is a
    timed loop that checks worker liveness, so a worker thread killed
    by an unexpected exception (a malformed job, a bug in the
    machinery) surfaces as an error instead of hanging the caller
    forever on a join that can never complete.
    """

    def __init__(self, fn: Callable[..., None], name: str, what: str,
                 error_cls: type = BackupError, depth: int = 4) -> None:
        self._fn = fn
        self._what = what
        self._error_cls = error_cls
        self._queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self._error: Optional[BaseException] = None
        self._cond = threading.Condition()
        self._outstanding = 0
        #: Seconds the thread spent inside ``fn``.
        self.busy_seconds = 0.0
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=name)
        self._thread.start()

    def _finish_one(self) -> None:
        with self._cond:
            self._outstanding -= 1
            self._cond.notify_all()

    def _run(self) -> None:
        try:
            while True:
                job = self._queue.get()
                if job is _SENTINEL:
                    return
                if self._error is not None:  # fail fast: drop queued work
                    self._finish_one()
                    continue
                # Outside the try on purpose: a malformed job is a
                # machinery failure and kills the worker, which the
                # liveness guards below report.
                args = tuple(job)
                start = time.perf_counter()
                try:
                    self._fn(*args)
                except BaseException as exc:  # re-raised on the caller
                    self._error = exc
                finally:
                    self.busy_seconds += time.perf_counter() - start
                    self._finish_one()
        finally:
            # Dying (sentinel or unexpected exception) wakes any waiter
            # so drain/close notice the liveness change promptly.
            with self._cond:
                self._cond.notify_all()

    def _dead(self) -> BaseException:
        err = self._error_cls(f"{self._what} worker died")
        err.__cause__ = self._error
        return err

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting in the queue (approximate)."""
        return self._queue.qsize()

    def check(self) -> None:
        """Raise if a job has failed (and :meth:`reset` was not called)."""
        if self._error is not None:
            raise self._error_cls(f"{self._what} failed") from self._error

    def reset(self) -> None:
        """Forget a reported failure so new jobs are accepted again —
        for owners that outlive the run the failure belonged to."""
        self._error = None

    def submit(self, *job) -> None:
        """Enqueue ``fn(*job)`` (blocks while the queue is full)."""
        self.check()
        with self._cond:
            self._outstanding += 1
        while True:
            if not self._thread.is_alive():
                self._finish_one()
                raise self._dead()
            try:
                self._queue.put(job, timeout=_POLL)
                return
            except queue.Full:
                continue

    def drain(self) -> None:
        """Wait until every submitted job ran or was dropped; re-raise
        the first job error."""
        with self._cond:
            while self._outstanding > 0:
                if not self._thread.is_alive():
                    break
                self._cond.wait(_POLL)
            stranded = self._outstanding
        self.check()
        if stranded > 0:
            raise self._dead()

    def close(self) -> None:
        """Stop and join the worker thread, then surface any error."""
        pending: Optional[BaseException] = None
        try:
            self.drain()
        except self._error_cls as exc:
            pending = exc
        if self._thread.is_alive():
            try:
                self._queue.put(_SENTINEL, timeout=5.0)
            except queue.Full:
                pass  # worker died with a full queue; join below
        self._thread.join(timeout=_JOIN_TIMEOUT)
        if pending is not None:
            raise pending
        self.check()
        if self._thread.is_alive():
            raise self._error_cls(f"{self._what} worker failed to stop")
