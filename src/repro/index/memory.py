"""Plain in-memory chunk index (a dict).

This is what a *small* application-specific index effectively is once it
fits in RAM; it is also the building block the trace layer uses when it
wants index semantics without IO modelling.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.index.base import ChunkIndex, IndexEntry

__all__ = ["MemoryIndex"]


class MemoryIndex(ChunkIndex):
    """Dict-backed :class:`~repro.index.base.ChunkIndex`."""

    def __init__(self) -> None:
        super().__init__()
        self._map: Dict[bytes, IndexEntry] = {}

    def lookup(self, fingerprint: bytes) -> Optional[IndexEntry]:
        """O(1) hash lookup; every hit is a memory hit."""
        self.stats.lookups += 1
        entry = self._map.get(fingerprint)
        if entry is not None:
            self.stats.hits += 1
            self.stats.memory_hits += 1
        return entry

    def insert(self, entry: IndexEntry) -> None:
        """O(1) insert/replace."""
        self.stats.inserts += 1
        self._map[entry.fingerprint] = entry

    def __len__(self) -> int:
        return len(self._map)

    def entries(self) -> Iterator[IndexEntry]:
        """Iterate entries (insertion order)."""
        return iter(list(self._map.values()))
