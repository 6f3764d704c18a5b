"""Dedup estimation for real directories: a first backup that stores
nothing.

Before committing to a multi-hour first backup over a slow WAN, a user
wants to know what deduplication will buy.  :func:`estimate_directory`
runs that first backup — the real :class:`~repro.core.backup.BackupClient`
under the AA-Dedupe scheme — against a store that keeps only the size
of what it is given, behind a :class:`~repro.cloud.SimulatedCloud`.  The
session's own stats are the estimate; the facade's WAN and price models
turn what the engine would upload (containers with their padding, and
the manifest) into the expected transfer time and monthly bill.

Every byte is read, so an estimate costs what the first backup's dedup
stage costs, and its numbers are the backup's numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.classify.filetype import known_app_types
from repro.cloud.base import CloudBackend
from repro.cloud.simulated import SimulatedCloud
from repro.core.backup import BackupClient
from repro.core.options import aa_dedupe_config
from repro.core.source import DirectorySource
from repro.core.stats import SessionStats

__all__ = ["DedupEstimate", "estimate_directory"]


class _SizeOnlyBackend(CloudBackend):
    """An object store that keeps each object's size, not its bytes."""

    def __init__(self) -> None:
        super().__init__()
        self._sizes: Dict[str, int] = {}

    def _put(self, key: str, data: bytes) -> None:
        self._sizes[key] = len(data)

    def _get(self, key: str) -> Optional[bytes]:
        return None  # nothing can be read back

    def _delete(self, key: str) -> bool:
        return self._sizes.pop(key, None) is not None

    def _list(self, prefix: str) -> Iterator[str]:
        return (key for key in self._sizes if key.startswith(prefix))

    def stored_bytes(self) -> int:
        return sum(self._sizes.values())


@dataclass(frozen=True)
class DedupEstimate:
    """What a first AA-Dedupe backup of a directory would do."""

    #: The estimating session's stats (DR, unique bytes, tiny files).
    stats: SessionStats
    #: Modelled WAN time of the session's uploads on the paper's uplink.
    upload_seconds: float
    #: First-month bill for the session (April-2011 S3 prices).
    monthly_cost: float

    @property
    def by_category(self) -> Dict[str, Tuple[int, int]]:
        """Category value -> (scanned, unique) bytes, folded from the
        session's per-application breakdown."""
        category = {app.label: app.category.value
                    for app in known_app_types()}
        folded: Dict[str, Tuple[int, int]] = {}
        for label, scanned in self.stats.app_scanned.items():
            total, unique = folded.get(category[label], (0, 0))
            folded[category[label]] = (
                total + scanned, unique + self.stats.app_unique[label])
        return folded


def estimate_directory(root: str | os.PathLike) -> DedupEstimate:
    """Estimate AA-Dedupe's effect on a real directory by backing it up
    into a store that keeps nothing."""
    cloud = SimulatedCloud(_SizeOnlyBackend())
    client = BackupClient(cloud, aa_dedupe_config())
    stats = client.backup(DirectorySource(root))
    client.close()
    return DedupEstimate(stats, cloud.upload_seconds, cloud.bill())
