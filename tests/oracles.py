"""Per-byte reference implementations for the CDC family and Rabin window.

The production engines each have exactly one scan: a vectorised slab
pass (table gathers or byte compares over the whole buffer) followed by
a ``searchsorted`` walk over the candidate array.  The references here
share no code with either.  Each rolls its textbook recurrence one byte
at a time:

* :class:`RollingRabin` — the streaming Rabin window (push the new byte,
  pop the one that left);
* :func:`reference_candidates` — the candidate offsets each engine's
  scan must produce;
* :func:`reference_cut_points` — a byte-loop chunker that applies
  min / normal / max as it goes, the cut list each engine's
  ``cut_points`` must produce.

Two more oracles check a number the product takes on trust:

* :func:`is_irreducible` — Rabin's irreducibility test, which proves the
  fingerprint polynomials ``POLY64``/``POLY32`` irreducible;
* :func:`simulate_two_stage_pipeline` — a discrete-event makespan that
  the paper's closed-form backup window (Sec. IV-D) must approach.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.chunking import FastCDC, GearCDC, RabinCDC, SeqCDC
from repro.chunking.gear import gear_table
from repro.errors import ChunkingError
from repro.hashing.rabin import (POLY64, _RabinCore, _degree,
                                 make_shift_table, poly_mod)


class RollingRabin:
    """Streaming Rabin fingerprint of the last ``window`` bytes pushed.

    >>> r = RollingRabin(window=48)
    >>> for b in bytes(range(48)):
    ...     _ = r.push(b)
    >>> r.value == RollingRabin.of(bytes(range(48)), window=48)
    True
    """

    def __init__(self, window: int = 48, poly: int = POLY64) -> None:
        if window < 1:
            raise ChunkingError("window must be >= 1")
        self.window = window
        self._core = _RabinCore(poly)
        # Popping the byte that leaves the window removes its contribution
        # b * x^(8*window) (it has been shifted once more by the push).
        self._pop = make_shift_table(poly, 8 * window)
        self._buf = bytearray()
        self._pos = 0
        #: Current fingerprint of the most recent ``window`` bytes.
        self.value = 0

    @classmethod
    def of(cls, data: bytes, window: int = 48, poly: int = POLY64) -> int:
        """Fingerprint of exactly the last ``window`` bytes of ``data``."""
        r = cls(window=window, poly=poly)
        for b in data[-window:] if len(data) >= window else data:
            r.push(b)
        return r.value

    def push(self, byte: int) -> int:
        """Slide the window forward by one byte; return the new fingerprint.

        Until ``window`` bytes have been pushed the fingerprint covers the
        partial window (matching the conventional CDC warm-up behaviour).
        """
        fp = self._core.append_byte(self.value, byte)
        if len(self._buf) < self.window:
            self._buf.append(byte)
        else:
            old = self._buf[self._pos]
            self._buf[self._pos] = byte
            self._pos = (self._pos + 1) % self.window
            fp ^= self._pop[old]
        self.value = fp
        return fp

    def reset(self) -> None:
        """Clear the window (used when a chunk boundary is emitted)."""
        self._buf.clear()
        self._pos = 0
        self.value = 0


@lru_cache(maxsize=None)
def _gear_ints() -> List[int]:
    """The gear table as Python ints, for the per-byte loop."""
    return [int(v) for v in gear_table()]


# -- per-byte hit streams ----------------------------------------------------
# Each yields, for every byte of ``data`` in order, whether a cut right
# after that byte is a candidate (FastCDC: a (hard, easy) pair).

def _rabin_hits(chunker: RabinCDC, data: bytes) -> Iterator[bool]:
    roller = RollingRabin(window=chunker.window, poly=chunker.poly)
    mask, magic, window = chunker.mask, chunker.magic, chunker.window
    for pos, byte in enumerate(data):
        fp = roller.push(byte)
        yield pos + 1 >= window and (fp & mask) == magic


def _gear_hashes(data: bytes) -> Iterator[int]:
    gear = _gear_ints()
    h = 0
    for byte in data:
        h = ((h << 1) + gear[byte]) & 0xFFFFFFFF
        yield h


def _gear_hits(chunker: GearCDC, data: bytes) -> Iterator[bool]:
    mask, magic, window = chunker.mask, chunker.magic, chunker.window
    for pos, h in enumerate(_gear_hashes(data)):
        yield pos + 1 >= window and (h & mask) == magic


def _fastcdc_hits(chunker: FastCDC,
                  data: bytes) -> Iterator[Tuple[bool, bool]]:
    window = chunker.window
    mask_s, mask_l = chunker.mask_small, chunker.mask_large
    for pos, h in enumerate(_gear_hashes(data)):
        warm = pos + 1 >= window
        yield (warm and (h & mask_s) == mask_s,
               warm and (h & mask_l) == mask_l)


def _seqcdc_hits(chunker: SeqCDC, data: bytes) -> Iterator[bool]:
    run = 0
    for pos in range(len(data)):
        run = run + 1 if pos and data[pos] > data[pos - 1] else 1
        yield run >= chunker.seq_length


def _offsets(hits: Iterable[bool]) -> np.ndarray:
    return np.asarray([pos + 1 for pos, hit in enumerate(hits) if hit],
                      dtype=np.int64)


_HITS: Dict[type, Callable] = {RabinCDC: _rabin_hits, GearCDC: _gear_hits,
                               SeqCDC: _seqcdc_hits, FastCDC: _fastcdc_hits}


def reference_candidates(chunker, data: bytes):
    """The candidate cut offsets ``chunker``'s scan must produce: one
    sorted array, or for FastCDC the (hard-mask, easy-mask) pair."""
    hits = list(_HITS[type(chunker)](chunker, data))
    if isinstance(chunker, FastCDC):
        return (_offsets(small for small, _ in hits),
                _offsets(large for _, large in hits))
    return _offsets(hits)


# -- byte-loop chunker -------------------------------------------------------

def reference_cut_points(chunker, data: bytes) -> List[int]:
    """Cut offsets of ``chunker`` by a walk over every byte.

    The hash rolls continuously over the whole buffer (every engine's
    candidates are content-local).  After each byte the current chunk
    is cut when it has reached ``min_size`` and the byte is a candidate
    (for FastCDC: a hard-mask one up to ``normal_size``, an easy-mask
    one past it), or when it has reached ``max_size``.  Once no more
    than ``min_size`` bytes remain, they form the last chunk.
    """
    n = len(data)
    lo, hi = chunker.min_size, chunker.max_size
    normal = getattr(chunker, "normal_size", None)
    cuts: List[int] = []
    start = 0
    for end, hit in enumerate(_HITS[type(chunker)](chunker, data), start=1):
        if n - start <= lo:
            break
        length = end - start
        if normal is not None:
            small, large = hit
            hit = small if length <= normal else large
        if (length >= lo and hit) or length == hi:
            cuts.append(end)
            start = end
    if start < n:
        cuts.append(n)
    return cuts


# -- GF(2) polynomial arithmetic ---------------------------------------------

def poly_mulmod(a: int, b: int, p: int) -> int:
    """Carry-less multiply ``a * b`` then reduce modulo ``p`` over GF(2)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
    return poly_mod(result, p)


def _poly_gcd(a: int, b: int) -> int:
    """GCD of two GF(2) polynomials (Euclid with poly_mod)."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def is_irreducible(p: int) -> bool:
    """Rabin's irreducibility test for a GF(2) polynomial ``p``.

    ``p`` of degree ``n`` is irreducible iff ``x^(2^n) == x (mod p)`` and,
    for every prime divisor ``q`` of ``n``,
    ``gcd(x^(2^(n/q)) - x, p) == 1``.
    """
    n = _degree(p)
    if n <= 0:
        return False

    def x_pow_pow2(k: int) -> int:
        # Compute x^(2^k) mod p by repeated squaring of x.
        r = 0b10  # the polynomial "x"
        for _ in range(k):
            r = poly_mulmod(r, r, p)
        return r

    if x_pow_pow2(n) != 0b10:
        return False
    # Prime divisors of n.
    primes, m, d = [], n, 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    for q in primes:
        h = x_pow_pow2(n // q) ^ 0b10  # x^(2^(n/q)) - x  (== XOR over GF(2))
        if _poly_gcd(h, p) != 1:
            return False
    return True


# -- the pipelined backup window ---------------------------------------------

def simulate_two_stage_pipeline(stage1_times, stage2_times,
                                queue_depth: int = 4) -> float:
    """Discrete-event makespan of a two-stage pipeline over work items.

    Validates the paper's closed-form BWS: with a bounded hand-off queue
    (the engine uses a depth-4 upload queue), item ``i`` cannot enter
    stage 1 until item ``i − queue_depth`` has left stage 2, and stage 2
    processes in order.  The returned makespan always lies between
    ``max(sum(stage1), sum(stage2))`` (the paper's expression, evaluated
    per stage) and their sum; with many small items it converges to the
    max — which is why the paper's formula is the right model for
    container-granular upload pipelining.
    """
    if len(stage1_times) != len(stage2_times):
        raise ValueError("stage time lists must have equal length")
    stage1_free = 0.0
    stage2_free = 0.0
    finish2 = []  # completion times in stage 2
    for i, (t1, t2) in enumerate(zip(stage1_times, stage2_times)):
        start1 = stage1_free
        if i >= queue_depth:
            start1 = max(start1, finish2[i - queue_depth])
        done1 = start1 + t1
        stage1_free = done1
        start2 = max(done1, stage2_free)
        done2 = start2 + t2
        stage2_free = done2
        finish2.append(done2)
    return finish2[-1] if finish2 else 0.0
