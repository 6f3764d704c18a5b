"""Rolling Rabin window over a fixed-width byte window.

Content-defined chunking slides a ``window``-byte Rabin fingerprint over
the stream one byte at a time (the paper uses a 48-byte window with 1-byte
step) and declares a chunk boundary wherever ``fp & mask == magic``.
Because reduction mod ``P`` is linear over GF(2), the fingerprint of the
window starting at ``i`` equals::

    XOR_{k=0}^{W-1}  T_k[data[i + k]],   T_k[b] = (b << 8(W-1-k)) mod P

The tables ``T_k`` are rows of :func:`~repro.hashing.rabin.shift_rows`,
the one cached builder the block digest also reads.  The boundary scan,
:func:`window_candidates`, is checked against a per-byte streaming
reference kept with the tests.  It evaluates only the boundary test:
masking commutes with XOR, so ``fp & mask`` is an XOR of masked tables,
and the masked fingerprints of four adjacent positions (a mask of up to
16 bits) fit the lanes of one ``uint64``.  The paper's geometry
(48-byte window, 13-bit mask) scans with 51 byte-indexed gathers per
four positions over 256-entry lane tables that stay cache-resident.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hashing.rabin import POLY64, shift_rows

__all__ = ["SLAB", "byte_view", "lane_tables", "window_candidates",
           "window_tables"]

#: Window positions per slab of :func:`window_candidates`: the byte
#: columns, accumulator and gather temporary of one slab (0.375 MiB)
#: stay L2-sized whatever the buffer length.
SLAB = 64 * 1024


def window_tables(window: int, poly: int = POLY64) -> np.ndarray:
    """Return the ``(window, 256)`` uint64 table ``T_k[b]`` for the scan.

    ``T_k[b] = (b << 8*(window-1-k)) mod poly`` — byte ``k`` of the window
    contributes this value to the window fingerprint.  The table for the
    paper's 48-byte window is 48·256·8 B = 96 KiB, i.e. L2-resident.  A
    read-only view of the cached :func:`~repro.hashing.rabin.shift_rows`.
    """
    return shift_rows(poly, window)[::-1]


# Masked lane tables.  An entry is inserted only once fully built
# (``setdefault`` is atomic under the GIL), so threads racing on a cold
# key may build twice but never read a partial table, and all of them
# end up holding the one published object.
_LANE_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def byte_view(data: bytes | np.ndarray) -> np.ndarray:
    """``data`` as a ``uint8`` array, without a copy for bytes input."""
    return np.frombuffer(data, dtype=np.uint8) if not isinstance(
        data, np.ndarray) else data.astype(np.uint8, copy=False)


def lane_tables(window: int, poly: int, mask: int) -> np.ndarray:
    """Masked lane tables for :func:`window_candidates` (cached).

    Four, two or one window positions (masks of up to 16, 32 or 64 bits)
    share one ``uint64`` word, lane ``r`` (bits ``w·r`` up, ``w = 64 /
    lanes``) holding position ``r``'s masked fingerprint.  Row
    ``j < window + lanes - 1`` is ``P_j[b] = OR_r ((T_{j-r}[b] & mask)
    << w·r)`` over the lanes with ``0 <= j - r < window``.  At the
    paper's geometry that is 51 · 256 · 8 B = 102 KiB.  The same
    ``(window, poly, mask)`` always returns the same object.
    """
    key = (window, poly, mask)
    cached = _LANE_CACHE.get(key)
    if cached is not None:
        return cached
    bits = mask.bit_length()
    lanes = 4 if bits <= 16 else 2 if bits <= 32 else 1
    width = 64 // lanes
    masked = window_tables(window, poly) & np.uint64(mask)
    # Little-endian words on any host, so lane r is the r-th narrow word
    # in memory and the scan's narrow view lists positions in order.
    tables = np.zeros((window + lanes - 1, 256), dtype="<u8")
    for r in range(lanes):
        tables[r:r + window] |= masked << np.uint64(width * r)
    return _LANE_CACHE.setdefault(key, tables)


def window_candidates(data: bytes | np.ndarray, window: int, poly: int,
                      mask: int, magic: int) -> np.ndarray:
    """Cut offsets after every window whose fingerprint matches ``magic``.

    Returns the sorted int64 offsets ``i + window`` for every ``i`` with
    ``fp(data[i : i + window]) & mask == magic`` — the CDC boundary
    candidates — without computing the fingerprint bits the test does not
    read; a ``magic`` with bits outside ``mask`` raises ``ValueError``.
    Each slab of :data:`SLAB` positions de-interleaves its bytes into one
    column per lane and XORs ``window + lanes - 1`` gathers of the
    :func:`lane_tables` into one ``uint64`` per group of adjacent
    positions, so transient memory is bounded by the slab, not the buffer.
    """
    if magic & ~mask:
        raise ValueError(f"magic {magic:#x} has bits outside mask {mask:#x}")
    arr = byte_view(data)
    positions = arr.shape[0] - window + 1
    if positions <= 0:
        return np.empty(0, dtype=np.int64)
    tables = lane_tables(window, poly, mask)
    lanes = tables.shape[0] - window + 1
    lane_view = np.dtype(f"<u{8 // lanes}")
    target = lane_view.type(magic)
    reach = (window + lanes - 2) // lanes
    wide = -(-min(positions, SLAB) // lanes) + reach
    flat = np.empty(wide * lanes, dtype=np.uint8)
    columns = np.empty((lanes, wide), dtype=np.uint8)
    hits: List[np.ndarray] = []
    for start in range(0, positions, SLAB):
        m = min(SLAB, positions - start)
        groups = -(-m // lanes)
        # columns[q][g] = span[g * lanes + q]; the zero padding only feeds
        # the lanes past m, which are dropped below.
        span = arr[start:start + m + window - 1]
        padded = flat[:(groups + reach) * lanes]
        padded[:span.shape[0]] = span
        padded[span.shape[0]:] = 0
        cols = columns[:, :groups + reach]
        np.copyto(cols, padded.reshape(-1, lanes).T)
        # Plain indexing with the byte columns, not np.take(out=) with an
        # intp index: on a shared 2-vCPU VM the take loop is several times
        # faster when the core is quiet but runs up to 1.8x slower
        # whenever the host contends for it, while this path slows by
        # about 1.1x, so backup throughput stays steady from run to run.
        out = tables[0][cols[0, :groups]]
        for j in range(1, tables.shape[0]):
            shift, q = divmod(j, lanes)
            out ^= tables[j][cols[q, shift:shift + groups]]
        found = np.flatnonzero(out.view(lane_view)[:m] == target)
        if found.shape[0]:
            hits.append(found + (start + window))
    if not hits:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(hits).astype(np.int64, copy=False)
