"""SeqCDC: hash-less sequence-based chunking (arxiv 2505.21194).

SeqCDC declares a boundary wherever the last ``seq_length`` bytes form a
strictly increasing run — no rolling hash at all, just byte compares.
On the paper's observation that monotonic runs are (a) rare enough to
give target-sized chunks and (b) content-local, boundaries survive
insertions exactly like hash-based CDC.

The vectorised scan is the module's point: one ``uint8`` compare
produces the ascent bitmap, ``seq_length - 2`` slab ANDs reduce it to
"window all ascending", and ``flatnonzero`` yields the candidate list —
no per-byte Python at all, and no table gathers either, making this the
cheapest scan in the family.  The per-byte run-length reference it is
differential-tested against lives in ``tests/oracles.py``.

Default ``seq_length=7``: a strictly increasing 7-byte run occurs with
probability ``C(256,7)/256**7 ≈ 1/5478`` per position on uniform bytes,
so candidates arrive every ~5.3 KiB and the expected chunk is
``min_size + 5.3 KiB ≈ 7.3 KiB`` — closest to the family's 8 KiB
target.  Low-entropy buffers (all-zero, repeated bytes) contain no
ascending runs and degrade to forced maximum-size cuts, the same
Observation-3 behaviour as the hash-based chunkers.
"""

from __future__ import annotations

import numpy as np

from repro.chunking.cdc import ContentDefinedChunker
from repro.errors import ChunkingError
from repro.hashing.rolling import byte_view
from repro.util.units import KIB

__all__ = ["SeqCDC"]


class SeqCDC(ContentDefinedChunker):
    """Chunk after every strictly increasing ``seq_length``-byte run."""

    name = "seqcdc"

    def __init__(self,
                 avg_size: int = 8 * KIB,
                 min_size: int = 2 * KIB,
                 max_size: int = 16 * KIB,
                 seq_length: int = 7) -> None:
        super().__init__(avg_size, min_size, max_size)
        if not 2 <= seq_length <= 256:
            raise ChunkingError("seq_length must be in [2, 256]")
        self.seq_length = seq_length
        self.window = seq_length

    # ------------------------------------------------------------------
    def _candidates(self, data: bytes) -> np.ndarray:
        arr = byte_view(data)
        n = arr.shape[0]
        w = self.seq_length
        if n < w:
            return np.empty(0, dtype=np.int64)
        # up[j] — byte j+1 ascends over byte j.  A run starting at i is
        # strictly increasing over w bytes iff up[i .. i+w-2] all hold.
        up = arr[1:] > arr[:-1]
        ok = up[: n - w + 1].copy()
        for k in range(1, w - 1):
            ok &= up[k: n - w + 1 + k]
        return np.flatnonzero(ok).astype(np.int64) + w
