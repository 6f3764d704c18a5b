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
``probe_batch`` — one round trip, one ``batches`` tick per shard, and a
whole file's hooks for a sparse shard's champion election.  A lookup
nobody announced still works, as a batch of one.

New local inserts are published to the directory through a write-behind
**outbox**, flushed in batches (amortising shard locks and, on a
disk-backed directory, seeks).  The service flushes outboxes at session
end so every round's chunks are offered before the epoch commits.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.index.base import ChunkIndex, IndexEntry

__all__ = ["FleetIndex"]


class FleetIndex(ChunkIndex):
    """Per-application index with global-directory fallthrough.

    ``rank`` is the owning client's fleet rank — the tiebreaker when two
    clients publish the same fingerprint in one epoch (lowest wins, so
    commit results are independent of thread scheduling).
    """

    def __init__(self, directory, app: str, rank: int,
                 publish_batch: int = 64) -> None:
        super().__init__()
        if publish_batch < 1:
            raise ValueError("publish_batch must be >= 1")
        self.directory = directory
        self.app = app
        self.rank = rank
        self._publish_batch = publish_batch
        self._local: Dict[bytes, IndexEntry] = {}
        self._outbox: List[IndexEntry] = []
        self._memo_epoch = directory.epoch
        self._misses: Set[bytes] = set()
        #: Misses of the batch announced last — answered for the file
        #: in flight, replaced by the next announcement, so absorbed
        #: misses need no memo entry to avoid a second round trip.
        self._announced: Set[bytes] = set()
        #: Fingerprints probed against the directory (local misses).
        self.remote_probes = 0
        #: Directory hits — chunks first uploaded by some other client.
        self.remote_hits = 0
        #: Directory misses absorbed by a shard filter front (or an
        #: unallocated shard) — cheap enough that they skip the memo.
        self.filter_absorbed = 0
        #: Bytes saved by adopting remote entries (cross-client dedup,
        #: counted once at adoption; repeats afterwards are local hits).
        self.adopted_bytes = 0

    # ------------------------------------------------------------------
    def _probe(self, fingerprints: Iterable[bytes]) -> Set[bytes]:
        """One directory round trip for the fingerprints this client
        cannot answer itself; returns the ones the directory missed.

        Hits are *adopted*: the chunk lives in the shared container
        pool, so the local entry points straight at the publisher's
        container.  Misses that reached a backing index are memoised
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
        self.remote_probes += len(todo)
        found, absorbed = self.directory.probe_batch(
            self.app, todo, stream=self.rank)
        for fp, remote, cheap in zip(todo, found, absorbed):
            if remote is not None:
                self.remote_hits += 1
                self.adopted_bytes += remote.length
                self._local[fp] = remote
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
        self.generation += 1
        fresh = entry.fingerprint not in self._local
        self._local[entry.fingerprint] = entry
        if fresh:
            # Brand-new chunk this client just stored: offer it to the
            # fleet.  Refcount re-inserts and adopted entries are local
            # bookkeeping the directory does not need.
            self._outbox.append(entry)
            if len(self._outbox) >= self._publish_batch:
                self.flush_publishes()

    def flush_publishes(self) -> None:
        """Push the outbox to the directory's pending buffer."""
        if self._outbox:
            self.directory.publish_batch(self.app, self._outbox, self.rank)
            self._outbox = []

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
