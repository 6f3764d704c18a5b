"""Content-Defined Chunking (CDC) with Rabin fingerprinting.

Used for *dynamic uncompressed* data (DOC, TXT, PPT).  A 48-byte Rabin
window slides over the stream with 1-byte step (the paper's parameters);
a chunk boundary is declared after any position whose window fingerprint
satisfies ``fp & mask == magic``, subject to a 2 KiB minimum and 16 KiB
maximum chunk size with an 8 KiB expected size.  Cutting on content
rather than position makes boundaries survive byte insertions/deletions
(no boundary-shifting problem), at the price of a full rolling-hash scan.

Performance: the boundary scan is the hot loop of every CDC system.  The
boundary test reads only the low ``mask_bits`` of the fingerprint, and by
GF(2) linearity those bits are an XOR of masked per-byte tables, so
:func:`~repro.hashing.rolling.window_candidates` evaluates just them,
four adjacent positions to one ``uint64`` word: ``window + 3`` vectorised
gathers of masked lane tables per slab instead of a per-byte interpreter
loop (at masks of up to 16 bits); min/max enforcement then walks only
the (sparse) candidate cut list.  The scan is the only path; the per-byte
streaming reference it is checked against lives with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.chunking.base import Chunker
from repro.errors import ChunkingError
from repro.hashing.rabin import POLY64
from repro.hashing.rolling import window_candidates
from repro.util.units import KIB

__all__ = ["ContentDefinedChunker", "RabinCDC", "default_mask_bits"]


def default_mask_bits(avg_size: int, min_size: int) -> int:
    """Mask width giving expected chunk size ≈ ``avg_size``.

    With a minimum-size skip, the expected chunk length is
    ``min_size + 2**mask_bits`` (geometric boundary arrival), so we pick
    ``mask_bits = round(log2(avg_size - min_size))`` when possible.
    """
    span = avg_size - min_size
    if span <= 1:
        span = avg_size
    bits = int(round(math.log2(span)))
    return max(1, bits)


class ContentDefinedChunker(Chunker):
    """Shared min/max candidate-walk base for the CDC family.

    Every content-defined chunker in this package (Rabin, Gear, FastCDC,
    SeqCDC) reduces to the same two-phase structure:

    1. a *candidate scan* — a content-local rule marks boundary
       candidates over the whole buffer in one pass (vectorisable); and
    2. a *candidate walk* — starting from each accepted cut, the first
       candidate in ``[cut + min_size, cut + max_size]`` is taken, else
       a forced maximum-size cut is made.

    Subclasses implement :meth:`_candidates`, the vectorised slab scan
    (differential-tested against the byte-loop references in
    ``tests/oracles.py``).  :class:`~repro.chunking.gear.FastCDC`
    overrides :meth:`cut_points` for its two-mask normalized walk over
    a pair of candidate arrays instead.
    """

    def __init__(self, avg_size: int, min_size: int, max_size: int) -> None:
        if not (0 < min_size <= avg_size <= max_size):
            raise ChunkingError(
                f"require 0 < min ({min_size}) <= avg ({avg_size})"
                f" <= max ({max_size})")
        self.avg_size = avg_size
        self.min_size = min_size
        self.max_size = max_size

    # ------------------------------------------------------------------
    def _candidates(self, data: bytes) -> np.ndarray:
        """Vectorised sorted array of candidate cut offsets."""
        raise NotImplementedError

    def cut_points(self, data: bytes) -> List[int]:
        """Apply the candidate rule with min/max clamping over the buffer.

        After each accepted cut at ``c`` the next boundary is the first
        candidate in ``[c + min_size, c + max_size)``; if none exists a
        *forced cut* is made at ``c + max_size`` — the effect that makes
        CDC lose to SC on low-entropy static data (Observation 3).
        """
        n = len(data)
        if n == 0:
            return []
        cand = self._candidates(data)
        cuts: List[int] = []
        start = 0
        while start < n:
            remaining = n - start
            if remaining <= self.min_size:
                cuts.append(n)
                break
            lo = start + self.min_size
            hi = min(start + self.max_size, n)
            j = int(np.searchsorted(cand, lo, side="left"))
            if j < cand.shape[0] and cand[j] <= hi:
                cut = int(cand[j])
            else:
                cut = hi  # forced maximum-size cut (or end of file)
            cuts.append(cut)
            start = cut
        return cuts


class RabinCDC(ContentDefinedChunker):
    """Rabin content-defined chunker.

    Parameters mirror the paper's evaluation setup: ``avg_size=8 KiB``
    (expected), ``min_size=2 KiB``, ``max_size=16 KiB``, ``window=48``
    bytes, 1-byte step.  ``magic`` defaults to the all-ones pattern under
    ``mask`` so that all-zero regions (fingerprint 0) never match — the
    standard guard against pathological boundary storms in sparse files.
    """

    name = "cdc"

    def __init__(self,
                 avg_size: int = 8 * KIB,
                 min_size: int = 2 * KIB,
                 max_size: int = 16 * KIB,
                 window: int = 48,
                 poly: int = POLY64,
                 mask_bits: int | None = None,
                 magic: int | None = None) -> None:
        super().__init__(avg_size, min_size, max_size)
        if window < 1:
            raise ChunkingError("window must be >= 1")
        self.window = window
        self.poly = poly
        self.mask_bits = (default_mask_bits(avg_size, min_size)
                          if mask_bits is None else mask_bits)
        if self.mask_bits < 1 or self.mask_bits > 63:
            raise ChunkingError("mask_bits must be in [1, 63]")
        self.mask = (1 << self.mask_bits) - 1
        self.magic = self.mask if magic is None else (magic & self.mask)

    # ------------------------------------------------------------------
    def _candidates(self, data: bytes) -> np.ndarray:
        """Sorted array of candidate cut offsets (end-exclusive positions).

        A window ending at byte ``i+window-1`` that satisfies the magic
        condition yields a cut *after* that byte, i.e. at offset
        ``i + window``.
        """
        return window_candidates(data, self.window, self.poly, self.mask,
                                 self.magic)
