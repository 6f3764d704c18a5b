"""Similarity detection and delta compression (post-dedup stage).

Exact dedup stops at byte-identical chunks; this package captures the
*near*-duplicates that dominate PC document churn:

* :mod:`repro.delta.sketch` — super-feature resemblance sketches built
  on the existing rolling-Rabin machinery;
* :mod:`repro.delta.simindex` — bounded per-application similarity
  index (super-feature -> base fingerprint, LRU);
* :mod:`repro.delta.encode` — greedy copy/insert delta codec with a
  "not worth it" cutoff;
* :mod:`repro.delta.stage` — :class:`DeltaStage`, which threads the
  three together into the reuse / delta / full-store decision.

:class:`repro.core.backup.BackupClient` owns one stage when
``SchemeConfig(delta_compress=True)``: a unique CDC/SC chunk probes the
similarity index and, when a resembling base is resident, stores a
delta extent instead of its full bytes.  WFC/compressed categories
bypass the stage — application-awareness again: re-deltaing compressed
media buys nothing.  See ``docs/DELTA.md``.
"""

from repro.errors import DeltaError

from repro.delta.encode import (
    DEFAULT_CUTOFF,
    apply_delta,
    delta_target_length,
    encode_delta,
    encode_if_worthwhile,
    validate_delta,
)
from repro.delta.simindex import SimilarityIndex
from repro.delta.sketch import Sketch, compute_sketch
from repro.delta.stage import DeltaStage

__all__ = [
    "DEFAULT_CUTOFF",
    "DeltaError",
    "DeltaStage",
    "apply_delta",
    "delta_target_length",
    "encode_delta",
    "encode_if_worthwhile",
    "validate_delta",
    "SimilarityIndex",
    "Sketch",
    "compute_sketch",
]
