"""Scheme configuration: every knob that distinguishes the five schemes.

One :class:`SchemeConfig` fully determines the behaviour of
:class:`~repro.core.backup.BackupClient`.  AA-Dedupe is the default
configuration (:func:`aa_dedupe_config`); the baselines in
:mod:`repro.baselines` are alternative configurations of the *same*
engine, making the evaluation an apples-to-apples policy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.chunking import CDC_FAMILY
from repro.classify.filetype import AppType, Category
from repro.classify.policy import AA_POLICY_TABLE, DedupPolicy, \
    cdc_policy_variant, retarget_policy
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
    #: Probe the whole-file tier before chunking (SAM).
    file_tier: bool


@dataclass(frozen=True)
class SchemeConfig:
    """Declarative description of one backup scheme."""

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

    #: Per-category policy table (None ⇒ ``fixed_policy`` applies to all).
    policy_table: Optional[Mapping[Category, DedupPolicy]] = None

    #: Single policy used for every file when ``policy_table`` is None.
    fixed_policy: Optional[DedupPolicy] = None

    #: ``"app"`` — one subindex per application label (AA-Dedupe);
    #: ``"global"`` — one index for everything (traditional);
    #: ``"tier"`` — one index per chunking method (SAM-style hybrid).
    index_layout: str = "app"

    #: Pure incremental mode (Jungle Disk): no fingerprint index at all;
    #: files unchanged since the previous session (size+mtime) are skipped,
    #: changed files are uploaded whole.
    incremental_only: bool = False

    #: File-level dedup pass before chunk-level (SAM's first tier): the
    #: whole file's fingerprint is probed first and chunking only happens
    #: on a whole-file miss.
    file_level_first: bool = False

    #: Replicate the chunk index to the cloud every N sessions (0 = never).
    index_sync_interval: int = 1

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

    #: Keep a cloud-side session journal of durably-uploaded objects so
    #: an interrupted session can be re-run without re-uploading data
    #: (see docs/RESILIENCE.md).  Off by default: the journal costs one
    #: extra small PUT per recorded upload, which would perturb the
    #: paper-faithful request/byte accounting of the evaluation.
    resumable: bool = False

    #: Post-dedup similarity detection + delta compression of unique
    #: CDC/SC chunks (see :mod:`repro.delta` and docs/DELTA.md).
    #: WFC/compressed categories always bypass the stage.  Off by
    #: default: the paper's evaluation is exact-only.
    delta_compress: bool = False

    #: Max delta hops from any chunk back to a full base extent.  Deeper
    #: chains save more bytes but cost chained decodes on restore.
    delta_max_chain: int = 3

    #: Cross-session unchanged-file recipe cache (stat cache): a file
    #: whose ``(path, size, mtime_ns)`` triple matches the previous
    #: successful session replays its cached recipe without being read,
    #: chunked or hashed (see docs/STATCACHE.md).  Replayed refs are
    #: revalidated against the live index and the GC epoch; a stale hit
    #: falls back to the full pipeline.  On for AA-Dedupe; the baselines
    #: keep it off so their measured work stays paper-faithful.
    stat_cache: bool = False

    #: Per-application chunker overrides: app label -> CDC-family engine
    #: name (``{"vmdk": "seqcdc"}``).  Resolved *after* the category
    #: policy table, so one application class can run a different
    #: boundary engine than its category default — the declarative
    #: service layer's ``app_chunkers`` job knob.  ``None``/empty means
    #: no overrides.  Restore needs no knowledge of this: chunk identity
    #: lives in the manifest.
    app_chunkers: Optional[Mapping[str, str]] = None

    #: Where the fingerprint index physically lives — a modelling knob
    #: consumed by the trace engine: ``"ram"`` (hash table with the
    #: residency model) or ``"fs"`` (a filesystem pool à la BackupPC,
    #: where every probe/insert costs fixed file-system IOs).
    index_media: str = "ram"

    def __post_init__(self) -> None:
        if self.index_layout not in ("app", "global", "tier"):
            raise ConfigError(f"bad index_layout {self.index_layout!r}")
        if self.index_media not in ("ram", "fs"):
            raise ConfigError(f"bad index_media {self.index_media!r}")
        if self.encrypt_chunks and self.incremental_only:
            raise ConfigError(
                "encrypt_chunks requires a dedup scheme, not incremental")
        if self.parallel_workers < 1:
            raise ConfigError("parallel_workers must be >= 1")
        if self.parallel_workers > 1 and self.incremental_only:
            raise ConfigError(
                "parallel dedup requires a dedup scheme, not incremental")
        if self.parallel_workers > 1 and self.file_level_first:
            raise ConfigError(
                "parallel dedup is incompatible with file_level_first")
        if not self.incremental_only:
            if (self.policy_table is None) == (self.fixed_policy is None):
                raise ConfigError(
                    "exactly one of policy_table/fixed_policy required")
        if self.tiny_file_threshold < 0:
            raise ConfigError("tiny_file_threshold must be >= 0")
        if self.delta_compress:
            if self.incremental_only:
                raise ConfigError(
                    "delta_compress requires a dedup scheme, not "
                    "incremental")
            if self.encrypt_chunks:
                raise ConfigError(
                    "delta_compress is incompatible with encrypt_chunks "
                    "(convergent ciphertexts destroy resemblance; see "
                    "docs/DELTA.md)")
            if self.delta_max_chain < 1:
                raise ConfigError("delta_max_chain must be >= 1")
        if self.stat_cache and self.incremental_only:
            raise ConfigError(
                "stat_cache requires a dedup scheme: incremental mode "
                "already skips unchanged files by metadata")
        if self.use_containers and self.container_size < 4096:
            raise ConfigError("container_size too small")
        if self.app_chunkers:
            if self.incremental_only:
                raise ConfigError(
                    "app_chunkers requires a dedup scheme, not "
                    "incremental")
            from repro.classify.filetype import known_app_types
            known = {app.label: app for app in known_app_types()}
            for label, engine in self.app_chunkers.items():
                app = known.get(label)
                if app is None and label != "unknown":
                    raise ConfigError(
                        f"app_chunkers: unknown application label "
                        f"{label!r}")
                category = (app.category if app is not None
                            else Category.DYNAMIC)
                # Raises ConfigError for non-CDC engines and for bases
                # (WFC) with no content-defined stage to swap.
                try:
                    retarget_policy(self.policy_for(category), engine)
                except ConfigError as exc:
                    raise ConfigError(
                        f"app_chunkers[{label!r}]: {exc}") from exc

    # ------------------------------------------------------------------
    def policy_for(self, category: Category) -> DedupPolicy:
        """Resolve the dedup policy for a file category."""
        if self.policy_table is not None:
            try:
                return self.policy_table[category]
            except KeyError:
                raise ConfigError(
                    f"policy table lacks category {category}") from None
        assert self.fixed_policy is not None
        return self.fixed_policy

    def policy_for_app(self, app: AppType) -> DedupPolicy:
        """Resolve the dedup policy for one application type.

        The category policy applies unless :attr:`app_chunkers` names a
        per-application boundary-engine override for ``app.label`` — the
        intelligent chunker's *category* decisions stay authoritative
        for hashing and tiering; only the cut-point engine is swapped.
        """
        policy = self.policy_for(app.category)
        if not self.app_chunkers:
            return policy
        engine = self.app_chunkers.get(app.label)
        if engine is None:
            return policy
        return retarget_policy(policy, engine)

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
        filter, policy, namespace, file-tier probe.  The backup engine,
        the trace engine and the estimator all ask here, so the three
        cannot disagree on what happens to a file."""
        if self.incremental_only:
            return FilePlan(False, None, "", False)
        if size < self.tiny_file_threshold:
            # File size filter (Observation 1).
            return FilePlan(True, None, "tiny", False)
        policy = self.policy_for_app(app)
        return FilePlan(
            False, policy, self.index_namespace(app.label, policy),
            self.file_level_first and policy.chunker != "wfc" and size > 0)

    def with_(self, **changes) -> "SchemeConfig":
        """Return a modified copy (convenience for ablation sweeps)."""
        return replace(self, **changes)

    def with_chunker(self, name: str) -> "SchemeConfig":
        """Swap the content-defined boundary engine (CLI ``--chunker``).

        Every CDC-family policy in the scheme (the DYNAMIC row of the
        AA table, or a fixed all-CDC policy) is re-targeted at the
        named engine; WFC/SC rows are untouched, so the intelligent
        chunker's per-application decisions are preserved.  Raises
        :class:`ConfigError` for unknown names or schemes with no
        content-defined stage to swap.
        """
        if name not in CDC_FAMILY:
            raise ConfigError(
                f"unknown CDC-family chunker {name!r}; "
                f"valid: {', '.join(CDC_FAMILY)}")
        if self.incremental_only:
            raise ConfigError(
                f"scheme {self.name!r} is incremental-only and never "
                f"chunks; --chunker does not apply")
        if self.policy_table is not None:
            table = {
                category: (cdc_policy_variant(policy, name)
                           if policy.chunker in CDC_FAMILY else policy)
                for category, policy in self.policy_table.items()}
            if all(policy.chunker not in CDC_FAMILY
                   for policy in self.policy_table.values()):
                raise ConfigError(
                    f"scheme {self.name!r} has no content-defined "
                    f"chunking stage to swap")
            return self.with_(policy_table=table)
        assert self.fixed_policy is not None
        if self.fixed_policy.chunker not in CDC_FAMILY:
            raise ConfigError(
                f"scheme {self.name!r} chunks with "
                f"{self.fixed_policy.chunker!r}, not a CDC-family "
                f"engine; --chunker does not apply")
        return self.with_(
            fixed_policy=cdc_policy_variant(self.fixed_policy, name))


def aa_dedupe_config(**overrides) -> SchemeConfig:
    """The AA-Dedupe scheme exactly as the paper configures it.

    10 KB tiny-file filter, per-category intelligent chunking with
    adaptive hashing (Fig. 6), application-aware index, 1 MB padded
    containers, index sync every session.
    """
    base = dict(
        name="AA-Dedupe",
        tiny_file_threshold=10 * KIB,
        use_containers=True,
        container_size=1 * MIB,
        policy_table=AA_POLICY_TABLE,
        index_layout="app",
        index_sync_interval=1,
        stat_cache=True,
    )
    base.update(overrides)
    return SchemeConfig(**base)
