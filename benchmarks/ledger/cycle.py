"""The backup → restore → GC cycle every workload runs.

``full``   session 0 on an empty store
``incr``   sessions 1…N−1 (``aged_store`` interleaves retention + GC)
``close``  ``BackupClient.close()``
``restore`` the newest sessions into empty directories
``gc``     ``RetainLastN(2)`` + ``collect_garbage``
``post_gc_restore`` the last session again

Each phase is one span; restored trees are compared with their source
digests between the phases, outside every timed window.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from corpus import Corpus, Workload
from repro.cloud import LocalDirectoryBackend
from repro.core import (BackupClient, DirectorySource, RestoreClient,
                        aa_dedupe_config, collect_garbage)
from repro.core import naming
from repro.core.gc import GCReport, session_catalog
from repro.core.recipe import Manifest
from repro.core.restore import RestoreReport
from repro.core.retention import RetainLastN
from repro.core.stats import SessionStats
from repro.util.io import walk_files
from repro.util.units import GB, MB

#: Sessions the final ``gc`` phase retains.
RETAIN = 2

_WEEK = 7 * 86_400.0


class SpanLog:
    """In-memory span recorder (name, start, end, parent, run, bytes).

    Spans nest per thread; every span also carries the cycle phase that
    was current when it opened, so work on the staged engine's worker
    threads is attributed to the right phase without a parent link.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.rows: List[dict] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, nbytes: int = 0) -> None:
        """Record an interval timed by the caller."""
        self.rows.append({"id": next(self._ids), "parent": parent,
                          "name": name, "phase": self.phase, "start": start,
                          "end": end, "bytes": nbytes, "run": self.run_id})

    @contextmanager
    def span(self, name: str, nbytes: int = 0) -> Iterator[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        row = {"id": next(self._ids),
               "parent": stack[-1] if stack else None, "name": name,
               "phase": self.phase, "start": time.perf_counter(),
               "end": 0.0, "bytes": nbytes, "run": self.run_id}
        stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            stack.pop()
            self.rows.append(row)

    def total(self, name: str, phase: Optional[str] = None) -> float:
        """Summed duration of spans called ``name`` (in ``phase``)."""
        return sum(r["end"] - r["start"] for r in self.rows
                   if r["name"] == name
                   and (phase is None or r["phase"] == phase))

    def count(self, name: str) -> int:
        return sum(1 for r in self.rows if r["name"] == name)

    def nbytes(self, name: str) -> int:
        return sum(r["bytes"] for r in self.rows if r["name"] == name)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in sorted(self.rows, key=lambda r: r["start"]):
                fh.write(json.dumps(row) + "\n")


class _SessionClock:
    """Manifest timestamps one week apart, so stored bytes repeat
    exactly between runs (``BackupClient`` stamps manifests from
    ``cloud.clock`` when the store has one)."""

    def __init__(self) -> None:
        self.session = 0

    def now(self) -> float:
        return 1_300_000_000.0 + self.session * _WEEK


class LedgerStore(LocalDirectoryBackend):
    """The real directory backend plus the deterministic session clock."""

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.clock = _SessionClock()


@dataclass
class CycleResult:
    """Everything one cycle measured."""

    walls: Dict[str, float] = field(default_factory=dict)
    #: Process CPU seconds spent inside the phases (all threads).
    cpu: float = 0.0
    sessions: List[SessionStats] = field(default_factory=list)
    #: Reports of the ``restore`` phase (the post-GC restore only has
    #: to be bit-exact; its wall counts towards ``cycle_wall_s``).
    restores: List[RestoreReport] = field(default_factory=list)
    #: Distinct containers each of those manifests references.
    restore_distinct: List[int] = field(default_factory=list)
    final_gc: Optional[GCReport] = None
    #: Containers swept by all GC runs of the cycle.
    containers_swept: int = 0
    put_bytes: int = 0
    put_requests: int = 0
    store_after_backup: int = 0
    store_before_gc: int = 0
    store_after_gc: int = 0
    #: After the final GC: bytes of the containers left, and bytes of
    #: the distinct extents the retained manifests reference in them.
    live_container_bytes: int = 0
    live_extent_bytes: int = 0
    index_entries: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def end_to_end(cycles: List[CycleResult],
               logical: List[int]) -> Dict[str, float]:
    """The end-to-end metrics of one run, pooled over its cycles: every
    rate is Σ bytes / Σ wall, so it rests on all the work the run timed
    and not on one cycle's window (``setup_s`` and ``peak_rss_mb``
    belong to the process, not the cycles)."""
    def wall(*phases: str) -> float:
        return sum(c.walls[p] for c in cycles for p in phases)

    scanned = sum(logical) * len(cycles)
    put_bytes = sum(c.put_bytes for c in cycles)
    restored = sum(r.bytes_restored for c in cycles for r in c.restores)
    gets = sum(r.containers_fetched for c in cycles for r in c.restores)
    before_gc = sum(c.store_before_gc for c in cycles)
    return {
        "backup_full_MBps": logical[0] * len(cycles) / MB / wall("full"),
        "backup_incr_MBps":
            sum(logical[1:]) * len(cycles) / MB / wall("incr"),
        "bytes_saved_per_s":
            (scanned - put_bytes) / MB / wall("full", "incr"),
        "restore_MBps": restored / MB / wall("restore"),
        "cycle_wall_s": sum(c.wall for c in cycles) / len(cycles),
        "uploaded_bytes_per_user_byte": put_bytes / scanned,
        "stored_bytes_per_user_byte":
            sum(c.store_after_backup for c in cycles) / scanned,
        "put_requests_per_GB":
            sum(c.put_requests for c in cycles) / (scanned / GB),
        "restore_gets_per_GB": gets / (restored / GB),
        "gc_reclaimed_share":
            (before_gc - sum(c.store_after_gc for c in cycles)) / before_gc,
    }


def _tree_bytes(root: Path) -> int:
    return sum(stat.size for stat in walk_files(root))


def _discard(tree: Path) -> None:
    """Delete a tree and settle the filesystem, outside every timed
    window: on ext4 the journal backlog of a create-and-delete churn
    otherwise makes the next phase's writes 2-4x slower, by an amount
    that differs from run to run."""
    shutil.rmtree(tree, ignore_errors=True)
    os.sync()


def _verify(restored: Path, expected: Dict[str, str],
            result: CycleResult) -> None:
    """Compare a restored tree with its source digests, file by file."""
    result.attempted += len(expected)
    found = set()
    for stat in walk_files(restored):
        found.add(stat.relpath)
        digest = hashlib.sha256(stat.path.read_bytes()).hexdigest()
        if expected.get(stat.relpath) != digest:
            result.failed += 1
            result.problems.append(
                f"{restored.name}: {stat.relpath} differs")
    for rel in sorted(set(expected) - found):
        result.failed += 1
        result.problems.append(f"{restored.name}: {rel} missing")


def run_cycle(workload: Workload, corpus: Corpus, workdir: Path,
              spans: SpanLog, *, wrap_store=None, wrap_source=None,
              tracer=None) -> CycleResult:
    """Drive the real engine through one cycle in a fresh store.

    ``wrap_store``/``wrap_source`` install the traced run's timing
    wrappers; ``tracer`` is the program's own tracer.  Untraced runs
    pass none of them.
    """
    result = CycleResult()
    store_dir = workdir / "store"
    backend = LedgerStore(store_dir)
    store = wrap_store(backend) if wrap_store else backend
    last = workload.sessions - 1

    @contextmanager
    def phase(name: str):
        result.attempted += 1
        spans.phase = name
        cpu = time.process_time()
        with spans.span(name) as row:
            yield
        result.cpu += time.process_time() - cpu
        spans.phase = ""
        result.walls[name] = (result.walls.get(name, 0.0)
                              + row["end"] - row["start"])

    def _manifest(session: int) -> Manifest:
        # Read past any timing wrapper: this GET is the ledger's own.
        return Manifest.from_json(backend.get(naming.manifest_key(session)))

    def gc_pass(keep: int) -> GCReport:
        with phase("gc"):
            retain = RetainLastN(keep).select(session_catalog(store))
            report = collect_garbage(store, retain)
        result.containers_swept += report.deleted_containers
        if report.problems:
            result.failed += 1
            result.problems.extend(report.problems)
        return report

    def restore(session: int, label: str) -> None:
        dest = workdir / f"{label}-{session:02d}"
        with phase(label):
            client = RestoreClient(store, verify=True, tracer=tracer)
            report = client.restore_to_directory(session, dest)
        if label == "restore":
            result.restores.append(report)
            result.restore_distinct.append(
                len(_manifest(session).referenced_containers()))
        if report.corrupt:
            result.failed += 1
            result.problems.append(f"{label}: corrupt {report.corrupt}")
        _verify(dest, corpus.digests[session], result)
        _discard(dest)

    try:
        client = None
        for session, tree in enumerate(corpus.trees):
            source = DirectorySource(tree)
            if wrap_source:
                source = wrap_source(source)
            backend.clock.session = session
            with phase("full" if session == 0 else "incr"):
                if client is None:  # a cold backup starts with the client
                    client = BackupClient(
                        store, aa_dedupe_config(**workload.config),
                        tracer=tracer)
                stats = client.backup(source)
            result.sessions.append(stats)
            if stats.warnings:
                result.failed += 1
                result.problems.extend(stats.warnings)
            # The GC due after the last session is the ``gc`` phase.
            if (workload.gc_every and session != last
                    and (session + 1) % workload.gc_every == 0):
                gc_pass(workload.restore_sessions)
        result.index_entries = len(client.index)
        with phase("close"):
            client.close()
        result.put_bytes = backend.stats.bytes_uploaded
        result.put_requests = backend.stats.put_requests
        result.store_after_backup = _tree_bytes(store_dir)

        for session in range(last - workload.restore_sessions + 1,
                             last + 1):
            restore(session, "restore")
        result.store_before_gc = _tree_bytes(store_dir)
        result.final_gc = gc_pass(RETAIN)
        result.store_after_gc = _tree_bytes(store_dir)
        result.live_container_bytes = _tree_bytes(store_dir / "containers")
        result.live_extent_bytes = sum({
            (ref.container_id, ref.offset): ref.cloud_length
            for session in result.final_gc.retained_sessions
            for ref in _manifest(session).iter_refs()
            if ref.in_container}.values())
        restore(last, "post_gc_restore")
    finally:
        _discard(store_dir)
    return result
