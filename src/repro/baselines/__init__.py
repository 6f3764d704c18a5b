"""The four baseline cloud-backup schemes the paper compares against.

Each baseline is a :class:`~repro.core.options.SchemeConfig` for the
shared :class:`~repro.core.backup.BackupClient` engine — the evaluation
compares *policies*, exactly as the paper does:

* :func:`jungle_disk_config` — **Jungle Disk**: incremental file backup,
  no deduplication; changed files are uploaded whole.
* :func:`backuppc_config` — **BackupPC**: source *file-level* dedup; one
  global whole-file fingerprint index, per-file upload.
* :func:`avamar_config` — **EMC Avamar**: source *chunk-level* dedup;
  CDC (8 KB expected) with SHA-1 on every file, one global chunk index,
  per-chunk upload, no tiny-file filter.
* :func:`sam_config` — **SAM**: hybrid semantic-aware dedup; whole-file
  tier first, CDC chunk tier for uncompressed data, global per-tier
  indices.
* :func:`aa_dedupe_config` (re-exported) — the paper's scheme.

:func:`build_scheme` resolves any of them by name and applies the CLI /
job-file overrides.
"""

from repro.baselines.schemes import (
    jungle_disk_config,
    backuppc_config,
    avamar_config,
    sam_config,
    all_scheme_configs,
    build_scheme,
)
from repro.core.options import aa_dedupe_config

__all__ = [
    "jungle_disk_config",
    "backuppc_config",
    "avamar_config",
    "sam_config",
    "aa_dedupe_config",
    "all_scheme_configs",
    "build_scheme",
]
