"""Client-side fleet index: local subindex plus global-directory probe.

:class:`FleetIndex` is the per-``(client, app)`` subindex a fleet
client's :class:`~repro.core.backup.BackupClient` routes through its
application-aware index.  It behaves exactly like the paper's in-RAM
per-app index for everything the client has seen itself, and falls
through to the service's :class:`~repro.fleet.directory.GlobalDedupDirectory`
on a local miss:

* **local hit** — pure memory hit, no directory traffic;
* **directory hit** — another client already uploaded the chunk into
  the shared container pool; the entry is *adopted* into the local
  index (so repeats are local from then on) and the engine skips the
  upload — that is cross-client deduplication;
* **directory miss** — memoised for the rest of the directory epoch
  (the committed snapshot is frozen between commits, so a miss cannot
  turn into a hit mid-round) — repeated probes for hot new chunks cost
  one shard batch, not one per occurrence.  The memo is
  **filter-aware**: a miss the directory answered from a shard's Bloom
  front (or an unallocated shard) is *not* memoised — re-probing it is
  already a RAM bit test with no seek, so the memo set stays bounded by
  the handful of misses that actually reached a backing index instead
  of growing with every cold fingerprint a million-client fleet
  streams through.

Directory probes are **batched per file**: the backup engine announces
a file's fingerprints through :meth:`FleetIndex.begin_batch` before its
dedup loop, and the ones the client cannot answer itself travel in one
``probe_batch`` — one round trip and one ``batches`` tick per shard.
A lookup nobody announced still works, as a batch of one.

New local inserts queue in a write-behind **outbox** that leaves only
through :meth:`FleetIndex.flush_publishes`, which the service calls
after a session succeeded — so every round's chunks are offered before
the epoch commits, and a failed session's chunks never are: the client
drops its whole index, outbox included, unflushed (its containers may
never have become durable) and rebuilds it from its manifests.  Offers
stay invisible until the next commit anyway, so holding them to session
end costs no visibility.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set

from repro.index.base import ChunkIndex, IndexEntry

__all__ = ["FleetIndex"]


class FleetIndex(ChunkIndex):
    """Per-application index with global-directory fallthrough.

    ``rank`` is the owning client's fleet rank — the tiebreaker when two
    clients publish the same fingerprint in one epoch (lowest wins, so
    commit results are independent of thread scheduling).
    """

    def __init__(self, directory, app: str, rank: int) -> None:
        super().__init__()
        self.directory = directory
        self.app = app
        self.rank = rank
        self._local: Dict[bytes, IndexEntry] = {}
        self._outbox: Dict[bytes, IndexEntry] = {}
        self._memo_epoch = directory.epoch
        self._misses: Set[bytes] = set()
        #: Misses of the batch announced last — answered for the file
        #: in flight, replaced by the next announcement, so absorbed
        #: misses need no memo entry to avoid a second round trip.
        self._announced: Set[bytes] = set()
        #: Directory misses absorbed by a shard filter front (or an
        #: unallocated shard) — cheap enough that they skip the memo.
        self.filter_absorbed = 0

    # ------------------------------------------------------------------
    def _probe(self, fingerprints: Iterable[bytes]) -> Set[bytes]:
        """One directory round trip for the fingerprints this client
        cannot answer itself; returns the ones the directory missed.

        Hits are *adopted*: the chunk lives in the shared container
        pool, so the local entry points straight at the publisher's
        container (the directory counts the probes, hits and adopted
        bytes per client rank).  Misses that reached a backing index are memoised
        for the epoch; absorbed ones are not (see module docstring).
        """
        if self.directory.epoch != self._memo_epoch:
            self._memo_epoch = self.directory.epoch
            self._misses.clear()
            self._announced = set()
        todo = [fp for fp in dict.fromkeys(fingerprints)
                if fp not in self._local and fp not in self._misses]
        missed: Set[bytes] = set()
        if not todo:
            return missed
        found, absorbed = self.directory.probe_batch(
            self.app, todo, stream=self.rank)
        self.load(remote for remote in found if remote is not None)
        for fp, remote, cheap in zip(todo, found, absorbed):
            if remote is not None:
                continue
            missed.add(fp)
            if cheap:
                self.filter_absorbed += 1
            else:
                self._misses.add(fp)
        return missed

    def begin_batch(self, fingerprints, stream=None) -> None:
        """Resolve a file's unknown fingerprints in one round trip."""
        self._announced = self._probe(fingerprints)

    def lookup(self, fingerprint: bytes) -> Optional[IndexEntry]:
        stats = self.stats
        stats.lookups += 1
        entry = self._local.get(fingerprint)
        if entry is not None:
            stats.hits += 1
            stats.memory_hits += 1
            return entry
        if fingerprint in self._announced \
                and self.directory.epoch == self._memo_epoch:
            return None
        self._probe((fingerprint,))
        entry = self._local.get(fingerprint)
        if entry is not None:
            stats.hits += 1
        return entry

    def insert(self, entry: IndexEntry) -> None:
        self.stats.inserts += 1
        # A chunk this client just stored after a miss: offer it to the
        # fleet (adopted entries enter through :meth:`load`).
        self._local[entry.fingerprint] = entry
        self._outbox[entry.fingerprint] = entry

    def load(self, entries: Iterable[IndexEntry]) -> None:
        """Adopted or rebuilt entries offer nothing: the directory
        holds them, or a committed manifest names them, so they were
        offered when stored."""
        self._local.update((entry.fingerprint, entry) for entry in entries)

    def flush_publishes(self) -> None:
        """Offer the outbox to the directory's pending buffer."""
        if self._outbox:
            self.directory.publish_batch(self.app,
                                         list(self._outbox.values()),
                                         self.rank)
            self._outbox = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._local)

    def entries(self) -> Iterator[IndexEntry]:
        return iter(list(self._local.values()))

    def flush(self) -> None:
        self.flush_publishes()

    def close(self) -> None:
        self.flush_publishes()
        self._local.clear()
        self._misses.clear()
        self._announced = set()

