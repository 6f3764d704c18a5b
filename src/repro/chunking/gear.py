"""Gear-hash fast chunkers: :class:`GearCDC` and :class:`FastCDC`.

The classic Rabin scan (:mod:`repro.chunking.cdc`) evaluates a 48-byte
polynomial window.  The Gear hash replaces it with one
add-shift-gather per byte::

    h = ((h << 1) + GEAR[b])  mod 2**32

Because the contribution of a byte ``k`` positions back is
``GEAR[b] << k`` and shifts past the hash width vanish, ``h`` after any
byte is *exactly* a function of the last 32 bytes — a sliding 32-byte
window in disguise.  That windowed identity is what this module
exploits twice:

* **Slab scan**: all window hashes of a buffer are
  computed at once as 32 vectorised table-gathers + wrapping uint32
  adds (:func:`gear_window_hashes`) — mirroring the SeqCDC-style
  "process the buffer in slabs, not bytes" design.  A mask over the
  high bits needs every add's carries, so unlike Rabin's XOR the scan
  cannot drop to the masked bits alone.
* **Prefix stability**: boundaries depend only on a 32-byte window, so
  a prefix insertion re-chunks at most one window + one chunk before
  candidates realign — the same content-defined property the Rabin
  chunker is property-tested for.

Deviation from the FastCDC paper: the canonical formulation re-seeds
``h = 0`` at every chunk start, which makes early-chunk boundaries
depend on the previous cut.  We keep the hash rolling continuously
(the "rolling two-byte-shifted Gear" used by ddelta/2409.06066), which
makes every candidate purely content-local — the property that permits
the one-pass slab scan (checked against the per-byte recurrence kept in
``tests/oracles.py``) and strengthens boundary-shift resistance.

:class:`FastCDC` adds normalized chunking on top of the same candidate
scan: a harder mask (more bits) before the normal point discourages
small chunks, an easier mask (fewer bits) after it rescues chunks that
would otherwise hit the forced maximum cut — concentrating the length
distribution around ``avg_size`` without hurting dedup.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.chunking.cdc import ContentDefinedChunker, default_mask_bits
from repro.errors import ChunkingError
from repro.hashing.rolling import byte_view
from repro.util.units import KIB

__all__ = ["GearCDC", "FastCDC", "GEAR_BITS", "GEAR_WINDOW",
           "gear_table", "gear_window_hashes"]

#: Gear hash width in bits; also the effective window in bytes (a byte
#: ``k`` back contributes ``GEAR[b] << k``, gone once ``k`` reaches the
#: width).
GEAR_BITS = 32
GEAR_WINDOW = 32

#: Seed for the 256-entry random gear table.  Fixed so that chunk
#: boundaries — and therefore fingerprints and dedup state — are stable
#: across processes and releases.
_GEAR_SEED = 0x41414445  # "AADE"


def gear_table(seed: int = _GEAR_SEED) -> np.ndarray:
    """The 256-entry random uint32 gear table (one entry per byte value)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << GEAR_BITS, size=256,
                        dtype=np.uint64).astype(np.uint32)


# Lazily-built (window, 256) shifted-table stack for the slab scan.
_TABLES: np.ndarray | None = None


def _shifted_tables() -> np.ndarray:
    """``T_k[b] = (GEAR[b] << k) mod 2**32`` for ``k`` in ``[0, 32)``.

    32·256·4 B = 32 KiB — L1-resident.
    """
    global _TABLES
    if _TABLES is None:
        gear = gear_table().astype(np.uint64)
        tables = np.empty((GEAR_WINDOW, 256), dtype=np.uint32)
        for k in range(GEAR_WINDOW):
            tables[k] = (gear << k).astype(np.uint32)
        _TABLES = tables
    return _TABLES


def gear_window_hashes(data: bytes | np.ndarray) -> np.ndarray:
    """Gear hash of every complete 32-byte window of ``data``.

    Entry ``i`` equals the streaming hash after pushing byte
    ``i + 31``::

        h_e = sum_{k=0}^{31} GEAR[data[e-k]] << k   (mod 2**32)

    — bit-exact with the per-byte recurrence (differential-tested),
    computed as 32 table gathers + wrapping uint32 adds over the whole
    buffer.
    """
    arr = byte_view(data)
    n = arr.shape[0]
    if n < GEAR_WINDOW:
        return np.empty(0, dtype=np.uint32)
    tables = _shifted_tables()
    out = tables[0][arr[GEAR_WINDOW - 1:]]
    for k in range(1, GEAR_WINDOW):
        # Gather reads a strided view (no copy); uint32 adds wrap.
        out += tables[k][arr[GEAR_WINDOW - 1 - k: n - k]]
    return out


def _high_mask(bits: int) -> int:
    """``bits`` ones in the top of the 32-bit hash.

    Gear's shift-add pushes each byte's entropy upward through the
    word, so the high bits mix the most window bytes — masks therefore
    select from the top (the standard Gear/FastCDC convention).
    """
    if bits < 1 or bits > GEAR_BITS - 1:
        raise ChunkingError(
            f"mask bits must be in [1, {GEAR_BITS - 1}]")
    return ((1 << bits) - 1) << (GEAR_BITS - bits)


class GearCDC(ContentDefinedChunker):
    """Plain Gear chunker: one add-shift-gather per byte, one mask.

    Same boundary-walk semantics and default 2/8/16 KiB geometry as
    :class:`~repro.chunking.cdc.RabinCDC`; only the candidate rule —
    and its cost — differs.  ``magic`` defaults to all-ones under the
    mask, the same sparse-file boundary-storm guard as Rabin.
    """

    name = "gear"

    def __init__(self,
                 avg_size: int = 8 * KIB,
                 min_size: int = 2 * KIB,
                 max_size: int = 16 * KIB,
                 mask_bits: int | None = None,
                 magic: int | None = None) -> None:
        super().__init__(avg_size, min_size, max_size)
        self.window = GEAR_WINDOW
        self.mask_bits = (default_mask_bits(avg_size, min_size)
                          if mask_bits is None else mask_bits)
        self.mask = _high_mask(self.mask_bits)
        self.magic = self.mask if magic is None else (magic & self.mask)

    # ------------------------------------------------------------------
    def _candidates(self, data: bytes) -> np.ndarray:
        hashes = gear_window_hashes(data)
        hits = np.flatnonzero((hashes & np.uint32(self.mask))
                              == np.uint32(self.magic))
        return hits.astype(np.int64) + self.window


class FastCDC(ContentDefinedChunker):
    """Gear chunker with FastCDC's normalized chunking.

    Two masks around a *normal point* (default ``avg_size`` past the
    chunk start):

    * cuts before the normal point must satisfy the **small-region
      mask** (``mask_bits + norm_level`` bits — harder, suppressing
      short chunks beyond what the plain min-size skip achieves);
    * cuts after it only need the **large-region mask**
      (``mask_bits - norm_level`` bits — easier, so fewer chunks run
      into the forced maximum-size cut that costs dedup).

    Masks nest (both select from the hash's top bits with all-ones
    magic), so every small-region candidate is also a large-region
    candidate and the walk never skips a legal boundary.
    """

    name = "fastcdc"

    def __init__(self,
                 avg_size: int = 8 * KIB,
                 min_size: int = 2 * KIB,
                 max_size: int = 16 * KIB,
                 normal_size: int | None = None,
                 norm_level: int = 2,
                 mask_bits: int | None = None) -> None:
        super().__init__(avg_size, min_size, max_size)
        self.window = GEAR_WINDOW
        self.normal_size = avg_size if normal_size is None else normal_size
        if not (min_size <= self.normal_size <= max_size):
            raise ChunkingError(
                f"require min ({min_size}) <= normal_size "
                f"({self.normal_size}) <= max ({max_size})")
        if norm_level < 0:
            raise ChunkingError("norm_level must be >= 0")
        self.norm_level = norm_level
        bits = (default_mask_bits(avg_size, min_size)
                if mask_bits is None else mask_bits)
        self.mask_bits = bits
        self.small_bits = min(bits + norm_level, GEAR_BITS - 1)
        self.large_bits = max(bits - norm_level, 1)
        self.mask_small = _high_mask(self.small_bits)
        self.mask_large = _high_mask(self.large_bits)

    # ------------------------------------------------------------------
    # The candidate scan returns *two* sorted cut-offset arrays: positions
    # matching the small-region (hard) mask and the large-region (easy)
    # mask.  The small array is a subset of the large one by mask
    # nesting — asserted by the differential tests.
    def _candidate_pair(
            self, data: bytes) -> Tuple[np.ndarray, np.ndarray]:
        hashes = gear_window_hashes(data)
        small = np.flatnonzero((hashes & np.uint32(self.mask_small))
                               == np.uint32(self.mask_small))
        large = np.flatnonzero((hashes & np.uint32(self.mask_large))
                               == np.uint32(self.mask_large))
        return (small.astype(np.int64) + self.window,
                large.astype(np.int64) + self.window)

    def cut_points(self, data: bytes) -> List[int]:
        """Two-mask normalized walk.

        From each accepted cut ``c``: take the first hard-mask
        candidate in ``[c + min_size, c + normal_size]``; failing that
        the first easy-mask candidate in ``(c + normal_size,
        c + max_size]``; failing that the forced cut at
        ``c + max_size``.
        """
        n = len(data)
        if n == 0:
            return []
        cand_s, cand_l = self._candidate_pair(data)
        cuts: List[int] = []
        start = 0
        while start < n:
            remaining = n - start
            if remaining <= self.min_size:
                cuts.append(n)
                break
            lo = start + self.min_size
            hi = min(start + self.max_size, n)
            normal = min(start + self.normal_size, hi)
            j = int(np.searchsorted(cand_s, lo, side="left"))
            if j < cand_s.shape[0] and cand_s[j] <= normal:
                cut = int(cand_s[j])
            else:
                j = int(np.searchsorted(cand_l, normal + 1, side="left"))
                if j < cand_l.shape[0] and cand_l[j] <= hi:
                    cut = int(cand_l[j])
                else:
                    cut = hi  # forced maximum-size cut (or end of file)
            cuts.append(cut)
            start = cut
        return cuts
