"""Chunker interface, chunk record, and chunker registry.

A chunker partitions a byte buffer into contiguous, non-overlapping,
exhaustive :class:`Chunk` records.  Invariants (property-tested):

* ``chunks[0].offset == 0``;
* ``chunks[i].offset + chunks[i].length == chunks[i+1].offset``;
* lengths sum to ``len(data)``;
* concatenating ``chunk.data`` reproduces the input bit-exactly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import ChunkingError
from repro.obs.tracer import NOOP_TRACER

__all__ = ["Chunk", "Chunker", "register_chunker", "get_chunker",
           "available_chunkers"]


@dataclass(frozen=True)
class Chunk:
    """One contiguous piece of a file produced by a chunker.

    ``data`` holds the chunk bytes; it is carried alongside offset/length
    because the dedup pipeline fingerprints and (for unique chunks) packs
    the bytes immediately after chunking.
    """

    offset: int
    length: int
    data: bytes

    def __post_init__(self) -> None:
        if self.length != len(self.data):
            raise ChunkingError(
                f"chunk length {self.length} != len(data) {len(self.data)}")

    @property
    def end(self) -> int:
        """Offset one past the last byte of this chunk."""
        return self.offset + self.length


class Chunker(abc.ABC):
    """Abstract file chunker.

    Subclasses implement :meth:`cut_points`; the shared :meth:`chunk`
    materialises :class:`Chunk` records from the cut offsets, so every
    implementation automatically satisfies the partition invariants.
    """

    #: Registry name (``"wfc"``, ``"sc"``, ``"cdc"``, ``"gear"``,
    #: ``"fastcdc"``, ``"seqcdc"``).
    name: str = ""

    #: Profiling tracer; the engine swaps in a live one under
    #: ``--profile``.  The boundary scan is the chunker hot loop, so it
    #: gets its own span (``chunk.cut``) distinct from chunk
    #: materialisation.
    tracer = NOOP_TRACER

    @abc.abstractmethod
    def cut_points(self, data: bytes) -> List[int]:
        """Return the sorted *end* offsets of each chunk of ``data``.

        The final entry must equal ``len(data)``; an empty input yields
        an empty list.
        """

    def chunk(self, data: bytes) -> List[Chunk]:
        """Partition ``data`` into chunks (see class invariants)."""
        if len(data) == 0:
            return []
        with self.tracer.span("chunk.cut", chunker=self.name,
                              bytes=len(data)):
            cuts = self.cut_points(data)
        if not cuts or cuts[-1] != len(data):
            raise ChunkingError(
                f"{type(self).__name__}.cut_points must end at len(data)")
        chunks: List[Chunk] = []
        start = 0
        for cut in cuts:
            if cut <= start:
                raise ChunkingError("cut points must be strictly increasing")
            chunks.append(Chunk(offset=start, length=cut - start,
                                data=bytes(data[start:cut])))
            start = cut
        return chunks

    def average_chunk_size(self) -> float:
        """Nominal average chunk size in bytes (for metadata-cost models);
        ``float('inf')`` for whole-file chunking."""
        return float("inf")


_REGISTRY: Dict[str, Callable[[], Chunker]] = {}


def register_chunker(name: str, factory: Callable[[], Chunker]) -> None:
    """Register a default-configured chunker factory under ``name``."""
    if name in _REGISTRY:
        raise ChunkingError(f"chunker {name!r} already registered")
    _REGISTRY[name] = factory


def get_chunker(name: str) -> Chunker:
    """Instantiate the default-configured chunker registered as ``name``."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ChunkingError(
            f"unknown chunker {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_chunkers() -> list[str]:
    """Names of registered chunkers, sorted."""
    return sorted(_REGISTRY)
