"""Scheme configuration: every knob that distinguishes the five schemes.

One :class:`SchemeConfig` fully determines the behaviour of
:class:`~repro.core.backup.BackupClient`.  AA-Dedupe is the default
configuration (:func:`aa_dedupe_config`); the baselines in
:mod:`repro.baselines` are alternative configurations of the *same*
engine, making the evaluation an apples-to-apples policy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.chunking import CDC_FAMILY
from repro.classify.filetype import AppType, Category
from repro.classify.policy import AA_POLICY_TABLE, DedupPolicy
from repro.errors import ConfigError
from repro.util.units import KIB, MIB

__all__ = ["FilePlan", "SchemeConfig", "aa_dedupe_config"]


@dataclass(frozen=True)
class FilePlan:
    """What a scheme does with one file, decided from ``(app, size)``
    alone — see :meth:`SchemeConfig.plan_file`."""

    #: Below the tiny-file threshold: bypasses dedup, packed whole.
    tiny: bool
    #: Chunker + fingerprint choice; ``None`` when the file is stored
    #: whole (tiny files, and every file of an incremental-only scheme).
    policy: Optional[DedupPolicy]
    #: Index namespace, which is also the container stream
    #: (``"tiny"`` for tiny files, ``""`` for incremental-only schemes).
    namespace: str


@dataclass(frozen=True)
class SchemeConfig:
    """Declarative description of one backup scheme.

    A scheme states its dedup policy one way: :attr:`policy_table`, the
    chunker + fingerprint per file category (the paper's Fig. 6 for
    AA-Dedupe; SAM's WFC/CDC split; one policy everywhere for BackupPC
    and Avamar).  The constructor rejects, with
    :class:`~repro.errors.ConfigError`, a table missing a category and
    every feature an incremental-only scheme cannot run (encryption,
    the stat cache, parallel dedup).  Every other combination of the
    boolean features is legal.  No field turns session resume on or
    off: every session journals its uploads (:mod:`repro.core.journal`).
    """

    #: Human-readable scheme name (appears in stats and reports).
    name: str

    #: Files strictly smaller than this bypass deduplication (paper: 10 KB
    #: — Observation 1).  0 disables the filter.
    tiny_file_threshold: int = 10 * KIB

    #: Pack tiny files (and unique chunks) into containers before upload.
    #: When False every unique chunk/file is PUT as its own object.
    use_containers: bool = True

    #: Container size (paper: ~1 MB) and padding behaviour.
    container_size: int = 1 * MIB
    pad_containers: bool = True

    #: Chunker + fingerprint per file category — the whole of a
    #: scheme's dedup policy, and it must name every :class:`Category`.
    #: A one-policy scheme maps every category to the same policy
    #: (``dict.fromkeys(Category, policy)``).
    policy_table: Mapping[Category, DedupPolicy] = field(
        default_factory=lambda: AA_POLICY_TABLE)

    #: ``"app"`` — one subindex per application label (AA-Dedupe);
    #: ``"global"`` — one index for everything (traditional);
    #: ``"tier"`` — one index per chunking method (SAM-style hybrid).
    index_layout: str = "app"

    #: Pure incremental mode (Jungle Disk): no fingerprint index at all;
    #: files unchanged since the previous session (size+mtime) are skipped,
    #: changed files are uploaded whole.
    incremental_only: bool = False

    #: Overlap container uploads with deduplication via a worker thread
    #: (the paper's pipelined design).
    pipeline_uploads: bool = False

    #: Parallel deduplication (Observation 2: apps share no data, so
    #: each can be deduplicated "independently and in parallel").  1 runs
    #: the read → chunk → hash stages inline; >1 runs them, one file
    #: per job, on a pool of this many threads (see docs/PIPELINE.md).
    #: No worker touches the index, so any ``index_layout`` is legal.
    #: Requires a non-incremental scheme.
    parallel_workers: int = 1

    #: Convergent encryption (secure dedup — the paper's future work):
    #: chunks are encrypted under content-derived keys before
    #: fingerprinting/storage, keys are wrapped into the recipes.  The
    #: client must be given a master key.
    encrypt_chunks: bool = False

    #: Cross-session unchanged-file recipe cache (stat cache): a file
    #: whose ``(path, size, mtime_ns)`` triple matches the previous
    #: successful session replays its cached recipe without being read,
    #: chunked or hashed (see docs/STATCACHE.md).  Replayed refs are
    #: revalidated against the live index and the GC epoch; a stale hit
    #: falls back to the full pipeline.  On for AA-Dedupe; the baselines
    #: keep it off so their measured work stays paper-faithful.
    stat_cache: bool = False

    def __post_init__(self) -> None:
        if self.index_layout not in ("app", "global", "tier"):
            raise ConfigError(f"bad index_layout {self.index_layout!r}")
        if self.parallel_workers < 1:
            raise ConfigError("parallel_workers must be >= 1")
        if self.incremental_only:
            # Incremental mode keeps no fingerprint index and skips
            # unchanged files by metadata: nothing below has a stage to
            # run in.
            clashes = [name for name, on in (
                ("encrypt_chunks", self.encrypt_chunks),
                ("stat_cache", self.stat_cache),
                ("parallel_workers > 1", self.parallel_workers > 1)) if on]
            if clashes:
                raise ConfigError(
                    f"{', '.join(clashes)}: requires a dedup scheme, "
                    f"not incremental")
        missing = [c.value for c in Category if c not in self.policy_table]
        if missing:
            raise ConfigError(
                f"policy_table lacks categories: {', '.join(missing)}")
        if self.tiny_file_threshold < 0:
            raise ConfigError("tiny_file_threshold must be >= 0")
        if self.use_containers and self.container_size < 4096:
            raise ConfigError("container_size too small")

    # ------------------------------------------------------------------
    def policy_for_app(self, app: AppType) -> DedupPolicy:
        """The dedup policy of ``app``'s category: every application of
        a category is chunked and fingerprinted the same way."""
        return self.policy_table[app.category]

    def index_namespace(self, app_label: str, policy: DedupPolicy) -> str:
        """Subindex key for a chunk of application ``app_label``.

        This is where the application-aware index structure lives: the
        ``"app"`` layout gives each file type its own small index, the
        ``"global"`` layout collapses everything into one, and ``"tier"``
        groups by chunking method (file-level vs chunk-level tiers).
        """
        if self.index_layout == "app":
            return app_label
        if self.index_layout == "tier":
            return policy.chunker
        return "global"

    def plan_file(self, app: AppType, size: int) -> FilePlan:
        """The scheme's whole per-file decision, with no I/O: size
        filter, policy, namespace.  The backup engine (and with it the
        estimator) and the trace engine both ask here, so they cannot
        disagree on what happens to a file."""
        if self.incremental_only:
            return FilePlan(False, None, "")
        if size < self.tiny_file_threshold:
            # File size filter (Observation 1).
            return FilePlan(True, None, "tiny")
        policy = self.policy_for_app(app)
        return FilePlan(False, policy, self.index_namespace(app.label, policy))

    def with_(self, **changes) -> "SchemeConfig":
        """Return a modified copy (convenience for ablation sweeps)."""
        return replace(self, **changes)

    def with_chunker(self, name: str) -> "SchemeConfig":
        """Swap the content-defined boundary engine (CLI ``--chunker``).

        Every CDC-family row of the policy table (the DYNAMIC row of the
        AA table; every row of Avamar's) is re-targeted at the named
        engine; WFC/SC rows are untouched, so the intelligent
        chunker's per-category decisions are preserved.  A re-targeted
        row keeps its fingerprint hash and its size geometry; engine
        parameters (Rabin's ``window``) give way to the new engine's
        defaults.  Raises :class:`ConfigError` for unknown names or
        schemes with no content-defined stage to swap.
        """
        if name not in CDC_FAMILY:
            raise ConfigError(
                f"unknown CDC-family chunker {name!r}; "
                f"valid: {', '.join(CDC_FAMILY)}")
        if self.incremental_only:
            raise ConfigError(
                f"scheme {self.name!r} is incremental-only and never "
                f"chunks; --chunker does not apply")
        if all(policy.chunker not in CDC_FAMILY
               for policy in self.policy_table.values()):
            raise ConfigError(
                f"scheme {self.name!r} has no content-defined "
                f"chunking stage to swap")

        def swap(policy: DedupPolicy) -> DedupPolicy:
            if policy.chunker not in CDC_FAMILY or policy.chunker == name:
                return policy
            geometry = {key: value
                        for key, value in policy.chunker_params.items()
                        if key in ("avg_size", "min_size", "max_size")}
            return DedupPolicy(name, policy.hash_name, geometry)

        return self.with_(policy_table={
            category: swap(policy)
            for category, policy in self.policy_table.items()})


def aa_dedupe_config(**overrides) -> SchemeConfig:
    """The AA-Dedupe scheme exactly as the paper configures it.

    10 KB tiny-file filter, per-category intelligent chunking with
    adaptive hashing (Fig. 6), application-aware index, 1 MB padded
    containers, and the stat cache.
    """
    base = dict(
        name="AA-Dedupe",
        tiny_file_threshold=10 * KIB,
        use_containers=True,
        container_size=1 * MIB,
        policy_table=AA_POLICY_TABLE,
        index_layout="app",
        stat_cache=True,
    )
    base.update(overrides)
    return SchemeConfig(**base)
