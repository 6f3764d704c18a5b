"""Engine building block: the per-file work item.

The backup engine (:mod:`repro.core.backup`) moves one
:class:`WorkItem` per source file through read → chunk → hash and then
through the source-ordered commit loop.  With ``parallel_workers > 1``
the three CPU stages of a file run back to back as one job on a
``concurrent.futures.ThreadPoolExecutor`` (``BackupClient._staged``);
the executor's futures carry completion, stage errors and cancellation,
so nothing of that lives here.  With one worker the same stage
callables run inline on the coordinator.

Ordering is *not* a property of the pool: files finish preparing out of
order whenever worker counts exceed one.  Determinism lives entirely in
the coordinator, which holds every in-flight item in a source-ordered
window and commits them strictly in that order (see docs/PIPELINE.md
for the determinism argument and the failure semantics).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["WorkItem"]


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

    __slots__ = ("sf", "app", "plan", "replay", "local", "data", "raw",
                 "chunks")

    def __init__(self, sf, app, replay=None, plan=None) -> None:
        self.sf = sf
        self.app = app
        self.plan = plan
        #: The previous manifest's recipe to replay instead of running
        #: the stages.
        self.replay = replay
        self.local = None
        #: Read-stage output (dropped once chunked).
        self.data: Optional[bytes] = None
        #: Chunk-stage output awaiting fingerprints: raw chunk payloads
        #: in file order (``None`` before chunking and once hashed).
        self.raw: Optional[list] = None
        #: Hash-stage output, in file order:
        #: (fingerprint, sealed payload, wrapped key, logical length).
        self.chunks: list = []
