"""Per-session statistics and operation accounting.

:class:`OpCounters` records *what work was done* — bytes pushed through
each hash function, bytes scanned by the CDC boundary detector, chunk and
file counts, index probe counts — in a representation-independent way.
The same counters are filled by the real engine and by the trace engine,
and are the sole input the virtual CPU model
(:mod:`repro.simulate.cpumodel`) needs to price a session on the paper's
hardware.  :class:`SessionStats` adds the data-volume and request
outcomes from which every paper metric (DR, DE, BWS, CC, energy) derives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["OpCounters", "SessionStats"]


@dataclass
class OpCounters:
    """Work accounting for one backup session."""

    #: Bytes fingerprinted, per hash name ("rabin12", "md5", "sha1").
    hashed_bytes: Dict[str, int] = field(default_factory=dict)
    #: Bytes scanned by the rolling-hash CDC boundary detector.
    cdc_scanned_bytes: int = 0
    #: Bytes read from the source (disk read model input).
    read_bytes: int = 0
    #: Chunks produced by chunking (before dedup).
    chunks_produced: int = 0
    #: Index lookups issued / hits / lookups that had to touch disk.
    index_lookups: int = 0
    index_hits: int = 0
    index_disk_probes: int = 0

    def add_hashed(self, hash_name: str, nbytes: int) -> None:
        """Charge ``nbytes`` of fingerprinting under ``hash_name``."""
        self.hashed_bytes[hash_name] = (
            self.hashed_bytes.get(hash_name, 0) + nbytes)

    def merge(self, other: "OpCounters") -> None:
        """Accumulate ``other`` into ``self``."""
        for name, nbytes in other.hashed_bytes.items():
            self.add_hashed(name, nbytes)
        self.cdc_scanned_bytes += other.cdc_scanned_bytes
        self.read_bytes += other.read_bytes
        self.chunks_produced += other.chunks_produced
        self.index_lookups += other.index_lookups
        self.index_hits += other.index_hits
        self.index_disk_probes += other.index_disk_probes


@dataclass
class SessionStats:
    """Outcome of one backup session under one scheme."""

    session_id: int
    scheme: str

    # -- data volumes ---------------------------------------------------
    #: Logical bytes offered for backup (the paper's DS).
    bytes_scanned: int = 0
    #: Payload bytes that were new (stored for the first time).
    bytes_unique: int = 0
    #: Bytes actually shipped to the cloud (payload + container framing/
    #: padding + manifests) — what transfer time and cost are paid on.
    bytes_uploaded: int = 0

    # -- population -----------------------------------------------------
    files_total: int = 0
    files_tiny: int = 0
    #: Files replayed from the previous manifest by size+mtime: stat-cache
    #: hits and Jungle Disk's unchanged files (see docs/STATCACHE.md).
    files_unchanged: int = 0
    #: Stat-cache hits whose cached refs failed revalidation against
    #: the live index (the file fell back to the full pipeline).
    statcache_stale: int = 0
    chunks_unique: int = 0

    # -- cloud requests ---------------------------------------------------
    put_requests: int = 0

    # -- resilience -------------------------------------------------------
    #: Uploads skipped on session resume (journal proved them durable).
    resume_skipped_objects: int = 0
    resume_skipped_bytes: int = 0
    #: Non-fatal degradations (unreadable GC epoch, journal maintenance).
    warnings: list = field(default_factory=list)

    # -- work -------------------------------------------------------------
    ops: OpCounters = field(default_factory=OpCounters)

    # -- per-application breakdown (application-awareness made visible) --
    #: app label -> logical bytes offered.
    app_scanned: Dict[str, int] = field(default_factory=dict)
    #: app label -> unique (stored) bytes.
    app_unique: Dict[str, int] = field(default_factory=dict)

    def note_app(self, app: str, scanned: int, unique: int) -> None:
        """Accumulate one file's outcome under its application label."""
        self.app_scanned[app] = self.app_scanned.get(app, 0) + scanned
        self.app_unique[app] = self.app_unique.get(app, 0) + unique

    def app_dedup_ratio(self, app: str) -> float:
        """Per-application dedup ratio (1.0 when nothing was scanned)."""
        scanned = self.app_scanned.get(app, 0)
        unique = self.app_unique.get(app, 0)
        if unique <= 0:
            return float("inf") if scanned > 0 else 1.0
        return scanned / unique

    # -- measured wall time (real engine only; simulators use cpumodel) --
    dedup_wall_seconds: float = 0.0
    #: Accumulated busy seconds of every stage that ran on its own
    #: thread(s) ("read"/"chunk"/"hash"/"commit" with parallel_workers
    #: > 1, "upload" with pipeline_uploads; empty otherwise).
    #: Busy times sum past the session wall time exactly when stages
    #: overlapped — the paper's pipelining claim made measurable.
    stage_busy_seconds: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def bytes_saved(self) -> int:
        """Logical bytes eliminated by deduplication (SC in the paper)."""
        return self.bytes_scanned - self.bytes_unique

    @property
    def dedup_ratio(self) -> float:
        """DR = size before dedup / size after dedup (>= 1)."""
        if self.bytes_unique <= 0:
            return float("inf") if self.bytes_scanned > 0 else 1.0
        return self.bytes_scanned / self.bytes_unique

    def summary(self) -> str:
        """One-line human summary for logs and example output."""
        return (f"[{self.scheme}] session {self.session_id}: "
                f"scanned={self.bytes_scanned:,}B "
                f"unique={self.bytes_unique:,}B "
                f"uploaded={self.bytes_uploaded:,}B "
                f"DR={self.dedup_ratio:.2f} "
                f"files={self.files_total} puts={self.put_requests}")
