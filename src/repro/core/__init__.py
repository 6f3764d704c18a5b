"""The AA-Dedupe core: the paper's contribution, end to end.

The pipeline (paper Fig. 5)::

    source files ──> file size filter ──> intelligent chunker
        ──> application-aware deduplicator (per-app indices)
        ──> container management ──> cloud storage
                                     └─> manifests

:class:`~repro.core.backup.BackupClient` executes this pipeline for any
:class:`~repro.core.options.SchemeConfig`; the AA-Dedupe configuration is
the default, and the baseline schemes in :mod:`repro.baselines` are just
different configurations of the same engine — the comparison is therefore
a comparison of *policies*, exactly as in the paper.
"""

from repro.core.source import SourceFile, DirectorySource, MemorySource
from repro.core.recipe import ChunkRef, FileEntry, Manifest
from repro.core.stats import OpCounters, SessionStats
from repro.core.options import SchemeConfig, aa_dedupe_config
from repro.core.backup import BackupClient
from repro.core.filecache import invalidate_statcache
from repro.core.journal import SessionJournal
from repro.core.restore import RestoreClient, restore_session
from repro.core.gc import collect_garbage, GCReport

__all__ = [
    "SourceFile",
    "DirectorySource",
    "MemorySource",
    "ChunkRef",
    "FileEntry",
    "Manifest",
    "OpCounters",
    "SessionStats",
    "SchemeConfig",
    "aa_dedupe_config",
    "BackupClient",
    "invalidate_statcache",
    "SessionJournal",
    "RestoreClient",
    "restore_session",
    "collect_garbage",
    "GCReport",
]
