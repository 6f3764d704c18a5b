"""AA-Dedupe reproduction: application-aware source deduplication for
cloud backup in the personal computing environment (IEEE CLUSTER 2011).

Quick start — back up a directory to a local "cloud" and restore it::

    from repro import BackupClient, DirectorySource, restore_session
    from repro.cloud import LocalDirectoryBackend

    client = BackupClient(LocalDirectoryBackend("/tmp/cloud"))
    stats = client.backup(DirectorySource("~/Documents"))
    print(stats.summary())
    restore_session(client.cloud, stats.session_id, "/tmp/restored")

Run it again and the new client's first session reads the store: it
backs up as the next session and uploads only what changed.

Package map (see DESIGN.md for the full inventory):

==================  ====================================================
``repro.core``      the AA-Dedupe pipeline (filter -> intelligent
                    chunker -> app-aware dedup -> containers -> cloud)
``repro.baselines`` Jungle Disk / BackupPC / Avamar / SAM configurations
``repro.chunking``  WFC, SC, Rabin CDC
``repro.hashing``   extended Rabin, MD5, SHA-1, collision math
``repro.classify``  file-type registry + Fig. 6 policy table
``repro.index``     memory/disk/Bloom/app-aware chunk indices
``repro.container`` self-describing 1 MB containers
``repro.cloud``     backends, WAN model, S3 pricing
``repro.durability`` criticality-tiered replication, repair, placement
``repro.workloads`` Table-1-calibrated synthetic PC workload
``repro.trace``     paper-scale trace evaluation (Figs. 7-11)
``repro.simulate``  virtual platform (CPU/disk/power models)
``repro.metrics``   fixed-width text tables for bench output
``repro.analysis``  one function per paper table/figure
==================  ====================================================
"""

from repro._version import __version__
from repro.core import (
    BackupClient,
    DirectorySource,
    MemorySource,
    RestoreClient,
    SchemeConfig,
    SessionStats,
    aa_dedupe_config,
    collect_garbage,
    restore_session,
)
from repro.baselines import (
    all_scheme_configs,
    avamar_config,
    backuppc_config,
    jungle_disk_config,
    sam_config,
)
from repro.durability import (
    DurabilityPolicy,
    repair_cloud,
    replicate_cloud,
)

__all__ = [
    "__version__",
    "BackupClient",
    "DirectorySource",
    "MemorySource",
    "RestoreClient",
    "SchemeConfig",
    "SessionStats",
    "aa_dedupe_config",
    "collect_garbage",
    "restore_session",
    "all_scheme_configs",
    "avamar_config",
    "backuppc_config",
    "jungle_disk_config",
    "sam_config",
    "DurabilityPolicy",
    "repair_cloud",
    "replicate_cloud",
]
