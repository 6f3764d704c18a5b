"""Fleet workloads: per-client session sources with a shared corpus.

Cross-client deduplication only exists if clients actually hold common
data (the same OS images, shared project documents, media libraries).
Both builders here model that with a **shared corpus** every client
backs up alongside its **private** home directory:

* :func:`synthetic_fleet_sources` — a compact deterministic workload of
  in-memory files spanning several application types.  Fast enough for
  unit tests and CI smoke runs of the fleet benchmark.
* :func:`generated_fleet_sources` — paper-scale material from
  :class:`~repro.workloads.generator.WorkloadGenerator`: one generator
  (fixed seed) produces the shared corpus, and each client gets a
  private generator with its own seed *and* a disjoint block-id
  namespace, so private data never collides across clients while shared
  data stays byte-identical for everyone.

Both return ``sources[client][session]`` — ready for
:func:`repro.fleet.service.fleet_spec`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.source import MemorySource, SourceFile
from repro.errors import WorkloadError
from repro.util.units import KIB, MB
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.materialize import materialize_composition

__all__ = ["Corpus", "synthetic_fleet_sources",
           "generated_fleet_sources"]

#: Extension cycle for the synthetic corpus — spans dynamic (doc),
#: static (pdf, vmdk) and compressed (mp3) categories plus the
#: unknown-extension fallback, so the directory grows several app shards.
_EXTENSIONS = ("doc", "pdf", "mp3", "vmdk", "txt")


def _file_bytes(rng: np.random.Generator, size: int) -> bytes:
    return rng.integers(0, 256, size, dtype=np.uint8).tobytes()


class Corpus:
    """A mutable set of files with churn and monotonically-bumped mtimes.

    Shared between the fleet workload builders and the declarative
    service layer's synthetic job sources: both need a deterministic
    corpus that ages one churn step per backup session.
    """

    def __init__(self, prefix: str, seed: int, count: int,
                 base_size: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._prefix = prefix
        self._base_size = base_size
        self._mtime = 1
        self.files: Dict[str, bytes] = {}
        self.mtimes: Dict[str, int] = {}
        self._next_file = 0
        for _ in range(count):
            self._add_file()

    def _add_file(self) -> None:
        ext = _EXTENSIONS[self._next_file % len(_EXTENSIONS)]
        path = f"{self._prefix}/file{self._next_file:04d}.{ext}"
        self._next_file += 1
        # Sizes vary per file but stay above the 10 KiB tiny-file
        # threshold so every file goes through chunking + dedup.
        size = self._base_size + (self._next_file % 7) * KIB
        self._set(path, _file_bytes(self._rng, size))

    def _set(self, path: str, data: bytes) -> None:
        self.files[path] = data
        self.mtimes[path] = self._mtime
        self._mtime += 1

    def churn(self, fraction: float) -> None:
        """One session of change: rewrite ``fraction`` of files, add one."""
        paths = sorted(self.files)
        rolls = self._rng.random(len(paths))
        for path, roll in zip(paths, rolls):
            if roll < fraction:
                self._set(path, _file_bytes(self._rng,
                                            len(self.files[path])))
        self._add_file()

    def snapshot(self) -> MemorySource:
        """An immutable source of the corpus as it stands right now."""
        return MemorySource(dict(self.files), dict(self.mtimes))


def synthetic_fleet_sources(clients: int, sessions: int, *,
                            seed: int = 2011,
                            shared_files: int = 8,
                            private_files: int = 6,
                            file_kib: int = 16,
                            churn: float = 0.25
                            ) -> List[List[MemorySource]]:
    """Compact fleet workload: identical shared corpus + private files.

    Every client sees the *same* shared corpus snapshot per session
    (byte- and mtime-identical — this is what cross-client dedup
    exploits) plus a per-client private corpus churned on the same
    schedule.  Fully deterministic in ``seed``.
    """
    if clients < 1 or sessions < 1:
        raise WorkloadError("clients and sessions must be >= 1")
    shared = Corpus("shared", seed, shared_files, file_kib * KIB)
    privates = [Corpus("private", seed + 100_003 * (rank + 1),
                        private_files, file_kib * KIB)
                for rank in range(clients)]
    sources: List[List[MemorySource]] = [[] for _ in range(clients)]
    for session in range(sessions):
        if session:
            shared.churn(churn)
        shared_files_now = dict(shared.files)
        shared_mtimes_now = dict(shared.mtimes)
        for rank in range(clients):
            if session:
                privates[rank].churn(churn)
            files = dict(shared_files_now)
            files.update(privates[rank].files)
            mtimes = dict(shared_mtimes_now)
            mtimes.update(privates[rank].mtimes)
            sources[rank].append(MemorySource(files, mtimes))
    return sources


class _UnionSource:
    """Lazy source over prefixed workload snapshots (shared + private)."""

    def __init__(self, parts: Sequence[Tuple[str, object]]) -> None:
        self._parts = tuple(parts)

    def __iter__(self):
        for prefix, snap in self._parts:
            for path in sorted(snap.files):
                comp = snap.files[path]
                yield SourceFile(
                    path=prefix + path, size=comp.size,
                    mtime_ns=snap.mtimes.get(path, 0),
                    reader=lambda c=comp: materialize_composition(c),
                )


def generated_fleet_sources(clients: int, sessions: int, *,
                            bytes_per_client: int = 64 * MB,
                            shared_fraction: float = 0.4,
                            seed: int = 2011
                            ) -> List[List[_UnionSource]]:
    """Paper-scale fleet workload from :class:`WorkloadGenerator`.

    The shared corpus comes from one generator (fixed seed, block
    namespace 0); each client's private data from a generator seeded by
    rank and started in a disjoint block-id namespace, so private
    content never accidentally collides across clients.
    """
    shared_bytes = int(bytes_per_client * shared_fraction)
    private_bytes = bytes_per_client - shared_bytes
    if min(shared_bytes, private_bytes) < 10 * MB:
        raise WorkloadError(
            "bytes_per_client too small: shared and private portions "
            "must each be >= 10 MB (WorkloadGenerator floor)")
    shared_gen = WorkloadGenerator(total_bytes=shared_bytes, seed=seed)
    shared_snaps = list(shared_gen.sessions(sessions))
    sources: List[List[_UnionSource]] = []
    for rank in range(clients):
        gen = WorkloadGenerator(total_bytes=private_bytes,
                                seed=seed + 7_919 * (rank + 1),
                                block_namespace=(rank + 1) << 40)
        snaps = list(gen.sessions(sessions))
        sources.append([
            _UnionSource((("shared/", shared_snaps[s]),
                          ("private/", snaps[s])))
            for s in range(sessions)
        ])
    return sources
