"""Baseline scheme configurations (see package docstring).

Interpretation notes (documented per DESIGN.md's substitution policy):

* **Jungle Disk** detects change by file metadata (size+mtime), uploads
  whole changed files, performs no fingerprint indexing.  The paper calls
  it "a file incremental cloud backup scheme".
* **BackupPC** "performs deduplication at the file level": whole-file
  chunking with a cryptographic file hash (historic BackupPC pools files
  by MD5-derived names; we use MD5) in one global index.  File-granular
  uploads — no containers.
* **Avamar** "applies CDC-based chunk-level deduplication": the paper's
  CDC parameters (8 KB expected, 2–16 KB bounds, SHA-1) on *every* file
  regardless of type, one global chunk index, per-chunk upload.  This is
  the fine-grained, high-overhead extreme.
* **SAM** "combin[es] file-level and chunk-level deduplication based on
  file semantics": whole-file SHA-1 tier first; on a file-tier miss,
  compressed media stays at file granularity while uncompressed data is
  CDC-chunked with SHA-1; per-tier global indices; 10 KB small-file
  shortcut like AA-Dedupe (the paper says AA's filter is "an approach
  like SAM") but without container aggregation.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.classify.filetype import Category
from repro.classify.policy import DedupPolicy
from repro.core.options import SchemeConfig, aa_dedupe_config
from repro.errors import ConfigError
from repro.util.units import KIB

__all__ = ["jungle_disk_config", "backuppc_config", "avamar_config",
           "sam_config", "all_scheme_configs", "build_scheme"]

_CDC_SHA1 = DedupPolicy(
    "cdc", "sha1",
    {"avg_size": 8 * KIB, "min_size": 2 * KIB, "max_size": 16 * KIB,
     "window": 48})


def jungle_disk_config(**overrides) -> SchemeConfig:
    """Jungle Disk: incremental file backup, no deduplication."""
    base = dict(
        name="JungleDisk",
        incremental_only=True,
        tiny_file_threshold=0,
        use_containers=False,
        index_sync_interval=0,
    )
    base.update(overrides)
    return SchemeConfig(**base)


def backuppc_config(**overrides) -> SchemeConfig:
    """BackupPC: source file-level deduplication, global file index."""
    base = dict(
        name="BackupPC",
        tiny_file_threshold=0,
        use_containers=False,
        fixed_policy=DedupPolicy("wfc", "md5"),
        index_layout="global",
        index_sync_interval=0,
        # BackupPC's pool is a hardlink forest on the filesystem: every
        # whole-file probe and insert is filesystem metadata IO.
        index_media="fs",
    )
    base.update(overrides)
    return SchemeConfig(**base)


def avamar_config(**overrides) -> SchemeConfig:
    """EMC Avamar: source chunk-level CDC dedup, single global index."""
    base = dict(
        name="Avamar",
        tiny_file_threshold=0,
        use_containers=False,
        fixed_policy=_CDC_SHA1,
        index_layout="global",
        index_sync_interval=0,
    )
    base.update(overrides)
    return SchemeConfig(**base)


def sam_config(**overrides) -> SchemeConfig:
    """SAM: hybrid file-level + chunk-level semantic-aware dedup.

    SAM partitions by file semantics: compressed media deduplicates at
    whole-file granularity, everything else at CDC chunk granularity —
    always with SHA-1 and one global index per tier.  Unlike AA-Dedupe
    it neither adapts the hash to the granularity nor partitions the
    chunk index by application.
    """
    base = dict(
        name="SAM",
        tiny_file_threshold=10 * KIB,
        use_containers=False,
        policy_table={
            Category.COMPRESSED: DedupPolicy("wfc", "sha1"),
            Category.STATIC: _CDC_SHA1,
            Category.DYNAMIC: _CDC_SHA1,
        },
        index_layout="tier",
        index_sync_interval=0,
    )
    base.update(overrides)
    return SchemeConfig(**base)


def all_scheme_configs(**common_overrides) -> list[SchemeConfig]:
    """The five evaluated schemes, in the paper's presentation order."""
    return [
        jungle_disk_config(**common_overrides),
        backuppc_config(**common_overrides),
        avamar_config(**common_overrides),
        sam_config(**common_overrides),
        aa_dedupe_config(**common_overrides),
    ]


def build_scheme(name: str, container_size: Optional[int] = None,
                 chunker: Optional[str] = None,
                 app_chunkers: Optional[Mapping[str, str]] = None,
                 delta: Optional[bool] = None,
                 stat_cache: Optional[bool] = None,
                 pipeline: Optional[bool] = None,
                 parallel: Optional[int] = None,
                 options: Optional[Mapping[str, object]] = None
                 ) -> SchemeConfig:
    """The one scheme builder behind the CLI flags and job files.

    Resolves ``name`` (case-insensitive) among :func:`all_scheme_configs`
    and applies the overrides that are not ``None``; ``options`` sets
    raw :class:`SchemeConfig` fields last.  Every mistake raises
    :class:`~repro.errors.ConfigError`; one that concerns a single
    override starts with its name (``"chunker: …"``).
    """
    config = next((c for c in all_scheme_configs()
                   if c.name.lower() == name.lower()), None)
    if config is None:
        names = ", ".join(c.name for c in all_scheme_configs())
        raise ConfigError(f"unknown scheme {name!r}; available: {names}")
    if chunker is not None:
        try:
            config = config.with_chunker(chunker)
        except ConfigError as exc:
            raise ConfigError(f"chunker: {exc}") from exc
    if parallel is not None and parallel < 1:
        raise ConfigError("parallel: must be >= 1")
    changes = {field: value for field, value in (
        ("container_size", container_size), ("app_chunkers", app_chunkers),
        ("delta_compress", delta), ("stat_cache", stat_cache),
        ("pipeline_uploads", pipeline), ("parallel_workers", parallel))
        if value is not None}
    try:
        return config.with_(**{**changes, **(options or {})})
    except TypeError as exc:
        raise ConfigError(f"options: {exc}") from exc
