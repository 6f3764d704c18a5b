"""Engine building blocks: the per-file work item and the one-thread
background worker.

The backup engine (:mod:`repro.core.backup`) moves one
:class:`WorkItem` per source file through read → chunk → hash and then
through the source-ordered commit loop.  With ``parallel_workers > 1``
the three CPU stages of a file run back to back as one job on a
``concurrent.futures.ThreadPoolExecutor`` (``BackupClient._staged``);
the executor's futures carry completion, stage errors and cancellation,
so nothing of that lives here.  With one worker the same stage
callables run inline on the coordinator.

:class:`BackgroundWorker` is one thread behind one bounded queue, used
for the two strictly-ordered downstream stages (container pack and WAN
upload).

Ordering is *not* a property of the pool: files finish preparing out of
order whenever worker counts exceed one.  Determinism lives entirely in
the coordinator, which holds every in-flight item in a source-ordered
window and commits them strictly in that order (see docs/PIPELINE.md
for the determinism argument and the failure semantics).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Optional

from repro.errors import BackupError

__all__ = ["BackgroundWorker", "WorkItem"]

#: Poll interval for liveness-aware blocking waits (seconds).
_POLL = 0.05

#: Worker join grace on close before declaring the thread hung.
_JOIN_TIMEOUT = 10.0

_SENTINEL = object()


class WorkItem:
    """One source file moving through the stages.

    Stage callables mutate the item (``data`` after read, ``raw`` after
    chunk, ``chunks`` after hash).  ``plan`` is the scheme's
    :class:`~repro.core.options.FilePlan` for the file.  ``local`` is
    the :class:`~repro.core.stats.SessionStats` the stages charge: a
    private one per item on the prepare pool (stages never contend on
    the session totals; the coordinator merges it at commit time), the
    session's own when the stages run inline.
    """

    __slots__ = ("sf", "app", "plan", "replay", "local", "data",
                 "file_fp", "raw", "chunks")

    def __init__(self, sf, app, replay=None, plan=None) -> None:
        self.sf = sf
        self.app = app
        self.plan = plan
        #: Cached recipe to replay instead of running the stages.
        self.replay = replay
        self.local = None
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
