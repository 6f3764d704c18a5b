"""Persistent chunk index: memtable + sorted on-disk runs (mini-LSM).

This models — and actually implements — the *full, unclassified index*
of traditional source dedup (Avamar in the paper's comparison): once the
fingerprint population outgrows RAM, lookups touch disk.  Structure:

* a RAM **memtable** (dict) absorbing inserts;
* when the memtable exceeds ``memtable_limit`` entries it is flushed to a
  **sorted run** file of fixed-width records with a side-car **Bloom
  filter**;
* lookups check memtable → runs newest-first, skipping runs whose Bloom
  filter rejects the fingerprint; a run probe is a binary search over the
  record file (each file access is counted in :class:`IndexStats` so the
  simulator can charge seeks);
* when ``max_runs`` accumulate, runs are compacted into one.

The paper's bottleneck argument falls straight out of the accounting:
a big single index ⇒ many run probes ⇒ many seeks; small per-application
indices (see :mod:`repro.index.appaware`) keep everything in memtable.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.errors import IndexError_
from repro.index.base import ChunkIndex, IndexEntry
from repro.index.bloom import BloomFilter
from repro.util.io import atomic_write_bytes

__all__ = ["DiskIndex"]

_RECORD = IndexEntry.RECORD_SIZE


class _Run:
    """One immutable sorted run on disk plus its Bloom filter."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.size = path.stat().st_size
        if self.size % _RECORD:
            raise IndexError_(f"corrupt run file {path}")
        self.count = self.size // _RECORD
        bloom_path = path.with_suffix(".bloom")
        self.bloom = (BloomFilter.from_bytes(bloom_path.read_bytes())
                      if bloom_path.exists() else None)
        #: Lazily-opened persistent read handle.  Runs are immutable, so
        #: one handle serves every probe; reopening per lookup costs an
        #: ``open(2)``/``close(2)`` pair per query, which dominates at
        #: fleet-scale probe volume.
        self._fh = None

    def _handle(self):
        if self._fh is None:
            self._fh = open(self.path, "rb")
        return self._fh

    def close(self) -> None:
        """Close the cached read handle (reopened on next probe)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def probe(self, fingerprint: bytes, stats) -> Optional[IndexEntry]:
        """Binary-search the run; charges disk reads to ``stats``."""
        key = fingerprint.ljust(20, b"\0")
        lo, hi = 0, self.count - 1
        fh = self._handle()
        while lo <= hi:
            mid = (lo + hi) // 2
            fh.seek(mid * _RECORD)
            rec = fh.read(_RECORD)
            stats.disk_probes += 1
            stats.disk_bytes += _RECORD
            entry = IndexEntry.unpack(rec)
            mid_key = entry.fingerprint.ljust(20, b"\0")
            if mid_key == key:
                return entry
            if mid_key < key:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    def entries(self) -> Iterator[IndexEntry]:
        """Stream all records in key order."""
        with open(self.path, "rb") as fh:
            while True:
                rec = fh.read(_RECORD)
                if not rec:
                    return
                yield IndexEntry.unpack(rec)


class DiskIndex(ChunkIndex):
    """LSM-style persistent :class:`~repro.index.base.ChunkIndex`.

    ``directory`` holds run files ``run-NNNN.idx`` (+ ``.bloom``); the
    memtable is rebuilt empty on open, so callers should :meth:`flush`
    before closing to make all entries durable.  ``bloom_fp_rate=None``
    disables the per-run Bloom side-cars entirely — the *unfiltered*
    disk index of the paper's bottleneck argument, where every probe
    (hit or miss) binary-searches the runs.  The fleet-scale benchmark
    uses it as the baseline arm the shard-level filter front is
    measured against.
    """

    def __init__(self, directory: str | os.PathLike,
                 memtable_limit: int = 65536,
                 max_runs: int = 8,
                 bloom_fp_rate: Optional[float] = 0.01) -> None:
        super().__init__()
        if memtable_limit < 1:
            raise IndexError_("memtable_limit must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memtable_limit = memtable_limit
        self.max_runs = max_runs
        self.bloom_fp_rate = bloom_fp_rate
        self._memtable: Dict[bytes, IndexEntry] = {}
        self._runs: List[_Run] = [
            _Run(p) for p in sorted(self.directory.glob("run-*.idx"))]
        self._next_run = (
            max((int(r.path.stem.split("-")[1]) for r in self._runs),
                default=-1) + 1)
        # Fingerprints deleted/overwritten since the last flush would need
        # tombstones in a general LSM; dedup indices are insert-mostly and
        # last-writer-wins, so the memtable simply shadows older runs.

    # ------------------------------------------------------------------
    def lookup(self, fingerprint: bytes) -> Optional[IndexEntry]:
        """Memtable first, then runs newest-first behind Bloom filters."""
        self.stats.lookups += 1
        entry = self._memtable.get(fingerprint)
        if entry is not None:
            self.stats.memory_hits += 1
            self.stats.hits += 1
            return entry
        for run in reversed(self._runs):
            if run.bloom is not None and not run.bloom.might_contain(
                    fingerprint):
                continue
            entry = run.probe(fingerprint, self.stats)
            if entry is not None:
                self.stats.hits += 1
                return entry
        return None

    def insert(self, entry: IndexEntry) -> None:
        """Insert into the memtable; flush to a new run when full."""
        self.stats.inserts += 1
        self._memtable[entry.fingerprint] = entry
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def __len__(self) -> int:
        seen = {e.fingerprint for e in self._memtable.values()}
        total = len(seen)
        for run in self._runs:
            for entry in run.entries():
                if entry.fingerprint not in seen:
                    seen.add(entry.fingerprint)
                    total += 1
        return total

    def entries(self) -> Iterator[IndexEntry]:
        """All live entries, memtable shadowing older runs."""
        seen = set()
        for entry in list(self._memtable.values()):
            seen.add(entry.fingerprint)
            yield entry
        for run in reversed(self._runs):
            for entry in run.entries():
                if entry.fingerprint not in seen:
                    seen.add(entry.fingerprint)
                    yield entry

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write the memtable as a new sorted run (+Bloom); maybe compact."""
        if not self._memtable:
            return
        entries = sorted(self._memtable.values(),
                         key=lambda e: e.fingerprint.ljust(20, b"\0"))
        self._write_run(entries)
        self._memtable.clear()
        if len(self._runs) > self.max_runs:
            self.compact()

    def _write_run(self, entries: List[IndexEntry]) -> None:
        path = self.directory / f"run-{self._next_run:06d}.idx"
        self._next_run += 1
        blob = b"".join(e.pack() for e in entries)
        atomic_write_bytes(path, blob)
        if self.bloom_fp_rate is not None:
            bloom = BloomFilter(capacity=max(1, len(entries)),
                                fp_rate=self.bloom_fp_rate)
            for e in entries:
                bloom.add(e.fingerprint)
            atomic_write_bytes(path.with_suffix(".bloom"), bloom.to_bytes())
        self._runs.append(_Run(path))

    def compact(self) -> None:
        """Merge all runs into one (newest version of each key wins)."""
        merged: Dict[bytes, IndexEntry] = {}
        for run in self._runs:  # oldest first; later runs overwrite
            for entry in run.entries():
                merged[entry.fingerprint] = entry
        old = self._runs
        self._runs = []
        self._write_run(sorted(
            merged.values(), key=lambda e: e.fingerprint.ljust(20, b"\0")))
        for run in old:
            run.close()
            try:
                run.path.unlink()
                run.path.with_suffix(".bloom").unlink(missing_ok=True)
            except OSError:
                pass

    def close(self) -> None:
        """Flush and drop references (files remain for reopening)."""
        self.flush()
        for run in self._runs:
            run.close()
        self._runs = []
        self._memtable = {}
