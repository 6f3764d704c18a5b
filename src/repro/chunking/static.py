"""Static Chunking (SC): fixed-size chunks at fixed file offsets.

Used for *static uncompressed* data (PDF, EXE, VMDK).  Observation 3:
when data updates are rare or block-aligned (VM disk images), SC matches
or beats CDC in dedup effectiveness — CDC loses duplicates to forced
maximum-size cuts — while being dramatically cheaper (no boundary scan).
SC's known weakness, boundary shifting under insertions, is exactly what
the trace-layer mutation model and the property tests exercise.
"""

from __future__ import annotations

from typing import List

from repro.chunking.base import Chunker
from repro.errors import ChunkingError
from repro.util.units import KIB

__all__ = ["StaticChunker"]


class StaticChunker(Chunker):
    """Cut every ``chunk_size`` bytes (default 8 KiB, the paper's setting)."""

    name = "sc"

    def __init__(self, chunk_size: int = 8 * KIB) -> None:
        if chunk_size < 1:
            raise ChunkingError("chunk_size must be positive")
        self.chunk_size = chunk_size

    def cut_points(self, data: bytes) -> List[int]:
        """Cuts at multiples of ``chunk_size`` plus a final tail cut."""
        n = len(data)
        cuts = list(range(self.chunk_size, n, self.chunk_size))
        if n:
            cuts.append(n)
        return cuts
