"""Sampling-based dedup estimation for real directories.

Before committing to a multi-hour first backup over a slow WAN, a user
wants to know what deduplication will buy.  :func:`estimate_directory`
scans a directory (optionally sampling large files), applies the
AA-Dedupe policy table, and reports the predicted per-category dedup
ratio, upload volume and — through the platform-independent paper
models — the expected backup window and monthly bill.

This is an estimator, not a backup: nothing is stored, the chunk index
lives only for the scan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict

from repro.classify.filetype import classify_path
from repro.cloud.pricing import PriceBook, S3_APRIL_2011
from repro.cloud.wan import PAPER_WAN, WANLink
from repro.core.options import aa_dedupe_config
from repro.core.stats import SessionStats
from repro.delta import DeltaStage
from repro.util.io import walk_files
from repro.util.units import KIB

__all__ = ["DedupEstimate", "estimate_directory"]


@dataclass
class DedupEstimate:
    """Outcome of one estimation scan."""

    files: int = 0
    tiny_files: int = 0
    bytes_scanned: int = 0
    bytes_unique: int = 0
    #: Chunks the (optional) delta stage would store as deltas, and the
    #: upload bytes it would save beyond exact dedup.
    delta_chunks: int = 0
    delta_bytes_saved: int = 0
    #: category value -> (scanned, unique) bytes.
    by_category: Dict[str, tuple] = field(default_factory=dict)

    @property
    def dedup_ratio(self) -> float:
        """Predicted overall DR for a first full backup."""
        if self.bytes_unique <= 0:
            return 1.0
        return self.bytes_scanned / self.bytes_unique

    def upload_seconds(self, wan: WANLink = PAPER_WAN,
                       container_size: int = 1024 * KIB) -> float:
        """Predicted first-backup transfer time over ``wan``."""
        requests = max(1, self.bytes_unique // container_size)
        return wan.upload_time(self.bytes_unique, requests)

    def monthly_cost(self, prices: PriceBook = S3_APRIL_2011,
                     container_size: int = 1024 * KIB) -> float:
        """Predicted first-month bill."""
        requests = max(1, self.bytes_unique // container_size)
        return prices.monthly_cost(self.bytes_unique, self.bytes_unique,
                                   requests)


def estimate_directory(root: str | os.PathLike,
                       max_file_bytes: int = 64 * 1024 * 1024,
                       delta: bool = False) -> DedupEstimate:
    """Estimate AA-Dedupe's effect on a real directory.

    Files larger than ``max_file_bytes`` are truncated for chunking (a
    prefix sample); the estimate extrapolates unique bytes linearly for
    the sampled remainder, which is conservative for media files (no
    sub-file redundancy) and slightly pessimistic for VM images.

    With ``delta=True`` unique CDC/SC chunks additionally pass through
    the engine's own :class:`~repro.delta.DeltaStage`, predicting what
    ``SchemeConfig(delta_compress=True)`` would save.
    """
    config = aa_dedupe_config(delta_compress=delta)
    estimate = DedupEstimate()
    indices: Dict[str, set] = {}
    chunkers: Dict[str, object] = {}
    #: Delta outcomes land here; the stage is the one the engine runs,
    #: driven with callbacks that count bytes instead of storing them.
    stats = SessionStats(session_id=0, scheme=config.name)
    stage = DeltaStage() if delta else None

    for stat in walk_files(root):
        estimate.files += 1
        estimate.bytes_scanned += stat.size
        app = classify_path(stat.relpath)
        category = app.category.value
        scanned, unique = estimate.by_category.get(category, (0, 0))
        plan = config.plan_file(app, stat.size)

        if plan.tiny:
            estimate.tiny_files += 1
            estimate.bytes_unique += stat.size
            estimate.by_category[category] = (scanned + stat.size,
                                              unique + stat.size)
            continue

        policy = plan.policy
        chunker = chunkers.get(policy.chunker)
        if chunker is None:
            chunker = chunkers[policy.chunker] = policy.make_chunker()
        hasher = policy.fingerprinter()
        index = indices.setdefault(plan.namespace, set())

        sampled = min(stat.size, max_file_bytes)
        try:
            with open(stat.path, "rb") as fh:
                data = fh.read(sampled)
        except OSError:
            continue
        unique_sampled = 0
        for chunk in chunker.chunk(data):
            fingerprint = hasher.hash(chunk.data)
            if fingerprint in index:
                continue
            index.add(fingerprint)
            payload = chunk.data
            if stage is None:
                unique_sampled += len(payload)
            else:
                # The stage's "refs" are the stored sizes.
                unique_sampled += stage.place(
                    plan.namespace, fingerprint, payload, policy.chunker,
                    app.label, stats,
                    store_full=lambda: len(payload),
                    store_delta=lambda blob, _base: len(blob))
        # Extrapolate the unsampled tail at the sampled unique density.
        if sampled and stat.size > sampled:
            density = unique_sampled / sampled
            unique_file = unique_sampled + int(
                (stat.size - sampled) * density)
        else:
            unique_file = unique_sampled
        estimate.bytes_unique += unique_file
        estimate.by_category[category] = (scanned + stat.size,
                                          unique + unique_file)
    estimate.delta_chunks = stats.chunks_delta
    estimate.delta_bytes_saved = stats.delta_bytes_saved
    return estimate
