"""Resemblance sketches: N-feature / super-feature similarity detection.

Exact fingerprint matching (the AA-Dedupe pipeline) only eliminates
chunks that are *byte-identical*.  PC backup streams are dominated by
near-duplicates — edited DOC/TXT/PPT versions whose CDC chunks differ by
a handful of bytes — and those re-upload in full.  The classic remedy
(Broder resemblance, as deployed by REBL/DERD and the delta tier of
stream-informed dedup systems) is a *sketch*:

1. slide the same rolling Rabin window the CDC chunker already uses over
   the chunk (:func:`repro.hashing.rolling.window_fingerprints` — one
   vectorised pass, no new hash machinery);
2. derive ``n_features`` permuted views ``pi_i(fp) = a_i * fp + b_i
   (mod 2^64)`` and keep the *maximum* of each across all windows.  By
   min/max-wise sampling, two chunks sharing a fraction ``r`` of their
   windows agree on each feature with probability ``r``;
3. group features into ``n_super`` *super-features* (the hash of a
   feature group).  A super-feature matches only when **every** feature
   in its group matches, so a single super-feature hit already implies
   strong resemblance, while ``n_super`` groups give the detector
   ``n_super`` independent chances.

Sketching is deterministic: equal chunks always produce equal sketches,
so the similarity index needs no coordination with the chunker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import DeltaError
from repro.hashing.base import get_hash
from repro.hashing.rabin import POLY64, _RabinCore
from repro.hashing.rolling import window_fingerprints

__all__ = ["Sketch", "compute_sketch", "DEFAULT_FEATURES", "DEFAULT_SUPER"]

#: Paper-typical sketch shape: 12 features folded into 3 super-features.
DEFAULT_FEATURES = 12
DEFAULT_SUPER = 3

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _feature_params(n_features: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic per-feature permutation constants ``(a_i, b_i)``.

    ``a_i`` is forced odd so ``x -> a_i*x + b_i (mod 2^64)`` is a
    bijection on 64-bit values (an odd multiplier is invertible mod a
    power of two) — every feature ranks the window population in a
    genuinely different order.
    """
    rng = np.random.default_rng(0xAADE17A)
    a = rng.integers(1, 2**63, size=n_features, dtype=np.uint64) * 2 + 1
    b = rng.integers(0, 2**63, size=n_features, dtype=np.uint64)
    return a, b


#: (n_features) -> cached permutation constants.
_PARAM_CACHE: dict[int, Tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class Sketch:
    """Resemblance sketch of one chunk.

    ``super_features`` are 8-byte digests; two chunks that share any
    super-feature are considered resembling.
    """

    super_features: Tuple[bytes, ...]


def compute_sketch(data: bytes,
                   n_features: int = DEFAULT_FEATURES,
                   n_super: int = DEFAULT_SUPER,
                   window: int = 48) -> Sketch:
    """Compute the ``n_super``-super-feature sketch of ``data``.

    Chunks shorter than the rolling window fall back to a single
    whole-buffer Rabin fingerprint as the only "window" — degenerate but
    still deterministic, so equal short chunks keep equal sketches.
    """
    if n_super < 1 or n_features < n_super or n_features % n_super:
        raise DeltaError(
            f"bad sketch shape: {n_features} features / {n_super} groups")
    params = _PARAM_CACHE.get(n_features)
    if params is None:
        params = _PARAM_CACHE[n_features] = _feature_params(n_features)
    a, b = params

    fps = window_fingerprints(data, window=window)
    if fps.shape[0] == 0:
        fps = np.array([_RabinCore(POLY64).digest_bytes(data)],
                       dtype=np.uint64)
    with np.errstate(over="ignore"):
        # (n_features, n_windows) permuted views; max-wise sampling.
        permuted = (fps[np.newaxis, :] * a[:, np.newaxis]
                    + b[:, np.newaxis]) & _MASK64
    features = permuted.max(axis=1)

    md5 = get_hash("md5")
    group = n_features // n_super
    supers = []
    for g in range(n_super):
        blob = features[g * group:(g + 1) * group].tobytes()
        supers.append(md5.hash(blob)[:8])
    return Sketch(super_features=tuple(supers))
