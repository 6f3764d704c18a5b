"""Rolling Rabin window over a fixed-width byte window.

Content-defined chunking slides a ``window``-byte Rabin fingerprint over
the stream one byte at a time (the paper uses a 48-byte window with 1-byte
step) and declares a chunk boundary wherever ``fp & mask == magic``.
Because reduction mod ``P`` is linear over GF(2), the fingerprint of the
window starting at ``i`` equals::

    XOR_{k=0}^{W-1}  T_k[data[i + k]],   T_k[b] = (b << 8(W-1-k)) mod P

The tables ``T_k`` are rows of :func:`~repro.hashing.rabin.shift_rows`,
the one cached builder the block digest also reads.  Two evaluations of
the sum are provided, both checked against a per-byte streaming
reference kept with the tests:

* :func:`window_fingerprints` — all 64 bits of every window position of a
  buffer at once, ``W`` table gathers into one scratch buffer (the delta
  sketch's input, which needs every bit);
* :func:`window_candidates` — only the boundary test.  Masking commutes
  with XOR, so ``fp & mask`` is an XOR of masked tables, and adjacent
  positions fold into ⌊W/2⌋ byte-pair tables of 65,536 entries in the
  narrowest dtype that holds ``mask``.  The paper's geometry (48-byte
  window, 13-bit mask) scans with 24 ``uint16`` gathers per byte over one
  ``uint16`` pair index built once per L2-sized slab.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.hashing.rabin import POLY64, shift_rows

__all__ = ["SLAB", "byte_view", "pair_tables", "window_candidates",
           "window_fingerprints", "window_tables"]

#: Window positions per slab of :func:`window_candidates`: the pair
#: index, accumulator and gather temporary of one slab (0.375 MiB at the
#: default geometry) stay L2-sized whatever the buffer length.
SLAB = 64 * 1024


def window_tables(window: int, poly: int = POLY64) -> np.ndarray:
    """Return the ``(window, 256)`` uint64 table ``T_k[b]`` for the scan.

    ``T_k[b] = (b << 8*(window-1-k)) mod poly`` — byte ``k`` of the window
    contributes this value to the window fingerprint.  The table for the
    paper's 48-byte window is 48·256·8 B = 96 KiB, i.e. L2-resident.  A
    read-only view of the cached :func:`~repro.hashing.rabin.shift_rows`.
    """
    return shift_rows(poly, window)[::-1]


# Masked pair tables.  An entry is inserted only once fully built
# (``setdefault`` is atomic under the GIL), so threads racing on a cold
# key may build twice but never read a partial table, and all of them
# end up holding the one published object.
_PAIR_CACHE: dict[tuple[int, int, int],
                  Tuple[np.ndarray, np.ndarray | None]] = {}


def byte_view(data: bytes | np.ndarray) -> np.ndarray:
    """``data`` as a ``uint8`` array, without a copy for bytes input."""
    return np.frombuffer(data, dtype=np.uint8) if not isinstance(
        data, np.ndarray) else data.astype(np.uint8, copy=False)


def window_fingerprints(data: bytes | np.ndarray, window: int = 48,
                        poly: int = POLY64) -> np.ndarray:
    """Fingerprints of every complete ``window``-byte window of ``data``.

    Returns a uint64 array of length ``len(data) - window + 1`` where entry
    ``i`` is the Rabin fingerprint of ``data[i : i + window]`` — bit-exact
    with a per-byte rolling hash (property-tested).  Runs in
    ``O(window)`` vectorised passes over the buffer.
    """
    arr = byte_view(data)
    n = arr.shape[0]
    if n < window:
        return np.empty(0, dtype=np.uint64)
    tables = window_tables(window, poly)
    m = n - window + 1
    idx = arr.astype(np.intp)
    out = np.take(tables[0], idx[:m])
    scratch = np.empty(m, dtype=np.uint64)
    for k in range(1, window):
        # Indices are bytes, always in range: "clip" skips the bounds
        # check and the buffered copy that ``out=`` costs under "raise".
        np.take(tables[k], idx[k:k + m], out=scratch, mode="clip")
        out ^= scratch
    return out


def _mask_dtype(mask: int) -> type:
    bits = mask.bit_length()
    return np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64


def pair_tables(window: int, poly: int, mask: int
                ) -> Tuple[np.ndarray, np.ndarray | None]:
    """Masked byte-pair tables for :func:`window_candidates` (cached).

    Returns ``(pairs, tail)``: ``pairs[j][b0 | b1 << 8]`` is
    ``(T_{2j}[b0] ^ T_{2j+1}[b1]) & mask`` for ``j < window // 2``, and
    ``tail`` is ``T_{window-1} & mask`` when ``window`` is odd, else
    ``None``.  The dtype is the narrowest of ``uint16``/``uint32``/
    ``uint64`` that holds ``mask``; at the paper's geometry the pairs
    are 24 · 128 KiB.  The same ``(window, poly, mask)`` always returns
    the same objects.
    """
    key = (window, poly, mask)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    dtype = _mask_dtype(mask)
    masked = (window_tables(window, poly)
              & np.uint64(mask)).astype(dtype)
    half = window // 2
    pairs = np.empty((half, 1 << 16), dtype=dtype)
    for j in range(half):
        # Row b1, column b0: the flat index is b0 | b1 << 8.
        pairs[j] = (masked[2 * j + 1][:, np.newaxis]
                    ^ masked[2 * j][np.newaxis, :]).ravel()
    tail = masked[window - 1].copy() if window % 2 else None
    return _PAIR_CACHE.setdefault(key, (pairs, tail))


def window_candidates(data: bytes | np.ndarray, window: int, poly: int,
                      mask: int, magic: int) -> np.ndarray:
    """Cut offsets after every window whose fingerprint matches ``magic``.

    Returns the sorted int64 offsets ``i + window`` for every ``i`` with
    ``window_fingerprints(data)[i] & mask == magic`` — the CDC boundary
    candidates — without computing the fingerprint bits the test does not
    read (``magic`` must lie under ``mask``).  Each slab of :data:`SLAB`
    positions builds one ``uint16`` index of adjacent byte pairs into a
    reused buffer and gathers ⌊window/2⌋ masked pair tables
    (:func:`pair_tables`), so transient memory is bounded by the slab,
    not the buffer.
    """
    arr = byte_view(data)
    n = arr.shape[0]
    positions = n - window + 1
    if positions <= 0:
        return np.empty(0, dtype=np.int64)
    pairs, tail = pair_tables(window, poly, mask)
    half = pairs.shape[0]
    target = pairs.dtype.type(magic)
    pair_index = np.empty(min(positions, SLAB) + window - 2, dtype=np.uint16)
    hits: List[np.ndarray] = []
    for start in range(0, positions, SLAB):
        m = min(SLAB, positions - start)
        span = arr[start:start + m + window - 1]
        gathers = []
        if half:
            # index[p] = span[p] | span[p + 1] << 8
            index = pair_index[:m + window - 2]
            np.left_shift(span[1:], 8, out=index, dtype=np.uint16)
            index |= span[:-1]
            gathers = [(pairs[j], index[2 * j:2 * j + m])
                       for j in range(half)]
        if tail is not None:
            gathers.append((tail, span[window - 1:]))
        # Plain indexing with the narrow index, not np.take(out=) with an
        # intp one: on a shared 2-vCPU VM the take loop is ~3x faster when
        # the core is quiet but runs up to 1.8x slower whenever the host
        # contends for it, while this path slows by about 1.1x, so backup
        # throughput stays steady from one run to the next.
        (table, idx), *rest = gathers
        out = table[idx]
        for table, idx in rest:
            out ^= table[idx]
        found = np.flatnonzero(out == target)
        if found.shape[0]:
            hits.append(found + (start + window))
    if not hits:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(hits).astype(np.int64, copy=False)
