"""Chunk-index substrate.

A chunk index maps fingerprints to chunk locations (container id, offset,
length).  The paper's performance argument revolves around index
*residency*: a single global index for a TB-scale dataset spills to disk
and every lookup risks a seek (the DDFS "disk bottleneck"), while
AA-Dedupe's per-application small indices stay RAM-resident.

Implementations:

* :class:`~repro.index.memory.MemoryIndex` — plain dict, RAM only;
* :class:`~repro.index.disk.DiskIndex` — persistent memtable + sorted-run
  (mini-LSM) index with per-run Bloom filters and IO accounting;
* :class:`~repro.index.appaware.AppAwareIndex` — the paper's structure:
  one subindex per application label;
* :class:`~repro.index.locality.LocalityCache` — HPDedup-style cache
  front that evicts low-temporal-locality streams first (a plain LRU
  when only one stream probes it);
* :class:`~repro.index.sparse.SparseShardIndex` — FAST'09
  sampling-based approximate index for a fleet directory's long tail.

Every :class:`~repro.index.base.ChunkIndex` is one tier of a *stack*:
``backing`` names the tier below (``None`` on a leaf), and
``begin_batch`` / ``discard`` / ``tiers`` / ``stack_stats`` drive or
observe the whole stack through its top tier — so a directory shard or
a client subindex is declared by composition
(``LocalityCache(DiskIndex(...), capacity)``), never probed for.
"""

from repro.index.base import ChunkIndex, IndexEntry, IndexStats
from repro.index.memory import MemoryIndex
from repro.index.bloom import BloomFilter
from repro.index.disk import DiskIndex
from repro.index.locality import LocalityCache
from repro.index.appaware import AppAwareIndex
from repro.index.sparse import SparseShardIndex

__all__ = [
    "ChunkIndex",
    "IndexEntry",
    "IndexStats",
    "MemoryIndex",
    "BloomFilter",
    "DiskIndex",
    "LocalityCache",
    "AppAwareIndex",
    "SparseShardIndex",
]
