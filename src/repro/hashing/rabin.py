"""Rabin fingerprints: polynomial hashing over GF(2).

A Rabin fingerprint treats a byte string ``b_0 b_1 ... b_{n-1}`` as the
polynomial ``m(x) = sum_i b_i(x) * x^{8(n-1-i)}`` over GF(2) and defines
``fp(m) = m(x) mod P(x)`` for a fixed irreducible polynomial ``P`` of
degree ``d``; the fingerprint fits in ``d`` bits.  Because reduction mod
``P`` is *linear over GF(2)*, fingerprints compose with XOR — the property
both the vectorised window scan (:mod:`repro.hashing.rolling`, behind the
CDC boundary test) and the block digest exploit.  Both read the same
cached shift tables ``S_m[b] = b·x^{8m} mod P`` (:func:`shift_rows`).

The paper uses a *96-bit extended Rabin hash* (12 bytes) as the whole-file
fingerprint for compressed files: cheap to compute, and at PC dataset
scale (≲ millions of files) its collision probability is orders of
magnitude below hardware error rates (see
:mod:`repro.hashing.collision`).  We realise the 96-bit digest as the
concatenation of two independent fingerprints over distinct irreducible
polynomials of degree 64 and 32.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import HashError
from repro.hashing.base import Fingerprinter, register_hash

__all__ = [
    "POLY64",
    "POLY32",
    "poly_mod",
    "make_shift_table",
    "shift_rows",
    "RabinFingerprinter",
    "ExtendedRabinFingerprinter",
]

#: Irreducible degree-64 polynomial x^64 + x^4 + x^3 + x + 1 (standard
#: GF(2^64) pentanomial).  Verified irreducible in the test suite.
POLY64 = (1 << 64) | 0b11011

#: Irreducible degree-32 polynomial x^32 + x^7 + x^3 + x^2 + 1 (standard
#: GF(2^32) pentanomial), used for the low 4 bytes of the extended hash.
POLY32 = (1 << 32) | 0x8D


def _degree(p: int) -> int:
    """Degree of the GF(2) polynomial encoded in integer ``p``."""
    return p.bit_length() - 1


def poly_mod(a: int, p: int) -> int:
    """Reduce polynomial ``a`` modulo ``p`` over GF(2) (bitwise long division)."""
    dp = _degree(p)
    da = a.bit_length() - 1
    while da >= dp:
        a ^= p << (da - dp)
        da = a.bit_length() - 1
    return a


@lru_cache(maxsize=None)
def make_shift_table(poly: int, shift_bits: int) -> tuple:
    """Precompute ``T[b] = (b << shift_bits) mod poly`` for all bytes ``b``.

    These 256-entry tables drive the byte-at-a-time Rabin operations:
    appending a byte reduces to one XOR with ``T`` at ``shift_bits =
    degree``.  The vectorised paths read :func:`shift_rows` instead.
    """
    return tuple(poly_mod(b << shift_bits, poly) for b in range(256))


# ``poly`` -> the longest finished block of :func:`shift_rows`.  A longer
# request extends a copy and publishes it whole, so threads racing on a
# cold or short entry may build twice but never read a partial row.
_SHIFT_ROWS: dict[int, np.ndarray] = {}


def shift_rows(poly: int, count: int) -> np.ndarray:
    """Rows ``S_m[b] = (b << 8m) mod poly`` for ``m < count`` (cached).

    ``S_{m+1}`` is ``S_m`` times ``x^8``: one shift and one lookup in
    the append table per entry, instead of a long polynomial division.
    Returns a read-only ``(count, 256)`` uint64 array; the CDC window
    tables and the block tables of :meth:`_RabinCore.digest_bytes_fast`
    are both slices of it.
    """
    rows = _SHIFT_ROWS.get(poly)
    if rows is None or rows.shape[0] < count:
        degree = _degree(poly)
        app = np.array(make_shift_table(poly, degree), dtype=np.uint64)
        low, top = np.uint64((1 << degree) - 1), np.uint64(degree - 8)
        grown = np.empty((max(count, 1), 256), dtype=np.uint64)
        if rows is None:
            grown[0] = np.arange(256, dtype=np.uint64)
            have = 1
        else:
            have = rows.shape[0]
            grown[:have] = rows
        for m in range(have, count):
            prev = grown[m - 1]
            grown[m] = ((prev << np.uint64(8)) & low) ^ app[prev >> top]
        grown.flags.writeable = False
        current = _SHIFT_ROWS.get(poly)
        if current is None or current.shape[0] < grown.shape[0]:
            _SHIFT_ROWS[poly] = grown
        rows = grown
    return rows[:count]


class _RabinCore:
    """Shared table-driven state for one polynomial: byte-append tables."""

    def __init__(self, poly: int) -> None:
        if _degree(poly) < 8:
            raise HashError("Rabin polynomial degree must be >= 8")
        self.poly = poly
        self.degree = _degree(poly)
        self.mask = (1 << self.degree) - 1
        # Appending byte b to fingerprint f:
        #   f' = ((f << 8) | b) mod P
        #      = ((f_low << 8) | b) ^ T_app[f_top8]
        # where f_top8 are the 8 bits shifted past the degree.
        self._app = make_shift_table(poly, self.degree)
        self._top_shift = self.degree - 8

    def append_byte(self, fp: int, byte: int) -> int:
        """Fingerprint of ``message + bytes([byte])`` given ``fp`` of message."""
        top = fp >> self._top_shift
        return (((fp << 8) & self.mask) | byte) ^ self._app[top]

    def digest_bytes(self, data: bytes, fp: int = 0) -> int:
        """Fingerprint of ``data`` starting from state ``fp``.

        Small inputs use the byte-at-a-time loop; large ones switch to
        the vectorised block path (:meth:`digest_bytes_fast`), which is
        bit-identical (property-tested).
        """
        if len(data) >= 4096:
            return self.digest_bytes_fast(data, fp)
        append = self.append_byte
        for b in data:
            fp = append(fp, b)
        return fp

    # -- vectorised block digest ----------------------------------------
    #: Bytes per vectorised block (tables: (_BLOCK+8) x 256 entries).
    _BLOCK = 512

    def digest_bytes_fast(self, data: bytes, fp: int = 0) -> int:
        """Vectorised fingerprint: per-block NumPy gathers + serial fold.

        GF(2) linearity makes each ``BLOCK``-byte block's fingerprint the
        XOR of per-position table entries — computed for *all* blocks at
        once with ``BLOCK`` vectorised gathers; blocks then fold serially
        via ``fp' = fp·x^{8·BLOCK} ⊕ block_fp`` using 8 byte tables.
        """
        n = len(data)
        block = self._BLOCK
        head = n % block
        for b in data[:head]:
            fp = self.append_byte(fp, b)
        if n == head:
            return fp
        rows = shift_rows(self.poly, block + 8)
        arr = np.frombuffer(data, dtype=np.uint8, offset=head).reshape(
            -1, block)
        # Block byte k contributes S_{BLOCK-1-k}.
        acc = rows[block - 1][arr[:, 0]]
        for k in range(1, block):
            acc ^= rows[block - 1 - k][arr[:, k]]
        # C_j = S_{BLOCK+j} folds byte j of the running fingerprint.
        c0, c1, c2, c3, c4, c5, c6, c7 = rows[block:].tolist()
        for block_fp in acc.tolist():
            fp = (c0[fp & 255] ^ c1[(fp >> 8) & 255]
                  ^ c2[(fp >> 16) & 255] ^ c3[(fp >> 24) & 255]
                  ^ c4[(fp >> 32) & 255] ^ c5[(fp >> 40) & 255]
                  ^ c6[(fp >> 48) & 255] ^ c7[fp >> 56]
                  ^ block_fp)
        return fp


class RabinFingerprinter(Fingerprinter):
    """Plain Rabin fingerprinter over one irreducible polynomial.

    ``digest_size`` is ``degree/8`` bytes (8 for :data:`POLY64`).  Suitable
    as a *weak* fingerprint where the dataset is small enough for the
    birthday bound to be negligible.
    """

    def __init__(self, poly: int = POLY64, name: str = "rabin64") -> None:
        self._core = _RabinCore(poly)
        if self._core.degree % 8:
            raise HashError("polynomial degree must be a multiple of 8")
        self.name = name
        self.digest_size = self._core.degree // 8

    def hash(self, data: bytes) -> bytes:
        """Return the big-endian fingerprint bytes of ``data``."""
        fp = self._core.digest_bytes(data)
        return fp.to_bytes(self.digest_size, "big")


class ExtendedRabinFingerprinter(Fingerprinter):
    """96-bit (12-byte) *extended* Rabin hash: 64-bit ⊕ independent 32-bit.

    This is the fingerprint AA-Dedupe assigns to whole compressed files
    (WFC); the extension to 96 bits keeps the collision probability for
    TB-scale personal datasets "smaller than the probability of hardware
    error by many orders of magnitude" (paper Sec. III-D).
    """

    name = "rabin12"
    digest_size = 12

    def __init__(self, poly_hi: int = POLY64, poly_lo: int = POLY32) -> None:
        self._hi = _RabinCore(poly_hi)
        self._lo = _RabinCore(poly_lo)
        if self._hi.degree + self._lo.degree != 96:
            raise HashError("extended Rabin polynomials must total 96 bits")

    def hash(self, data: bytes) -> bytes:
        """Concatenate the 64-bit and 32-bit fingerprints of ``data``."""
        hi = self._hi.digest_bytes(data)
        lo = self._lo.digest_bytes(data)
        return hi.to_bytes(8, "big") + lo.to_bytes(4, "big")


register_hash("rabin64", lambda: RabinFingerprinter(POLY64, "rabin64"))
register_hash("rabin12", ExtendedRabinFingerprinter)
