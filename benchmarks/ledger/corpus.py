"""Workload definitions and on-disk corpora for the perf ledger.

A workload fixes a *shape* — which application profiles, how many
bytes, how many weekly sessions, which engine configuration — and the
``--seed`` draws the *content*: every seed gets a disjoint block-id
namespace, so file sizes, counts and the weekly edit script are the same
for every seed while every byte (and therefore every CDC cut point and
fingerprint) differs.  Count metrics are then comparable across seeds
up to the container-count steps README.md describes, and repeat exactly
for one seed.

Each session is written as a real file tree.  A file whose content and
modification stamp did not change since the previous session is
hard-linked to it, and every file's mtime is set from the snapshot's
logical stamp, so the engine's stat cache sees what a user's disk would
show.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.util.units import KIB, MB
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.materialize import materialize_composition
from repro.workloads.profiles import PAPER_PROFILES

#: Seed of the shape RNG (file sizes, counts, edit script): the paper's
#: year, the same for every ``--seed``.
SHAPE_SEED = 2011

#: Smallest corpus ``WorkloadGenerator`` accepts.
_MIN_TOTAL = 10 * MB

#: Logical snapshot stamps become mtimes one second apart from here.
_MTIME_BASE_NS = 1_300_000_000 * 10**9

_DOCS = ("doc", "txt", "ppt")


@dataclass(frozen=True)
class Workload:
    """One row of the workload table in README.md."""

    name: str
    #: Application labels drawn from ``PAPER_PROFILES`` (shares are
    #: renormalised over the subset); ``None`` means all twelve.
    labels: Optional[Tuple[str, ...]]
    total_bytes: int
    sessions: int
    #: ``total_bytes // mean_divisor`` caps the mean file size.
    mean_divisor: int
    #: Tiny files per main file (0 leaves the tiny-file path idle).
    tiny_count_ratio: float = 1.56
    #: ``aa_dedupe_config`` overrides.
    config: Dict[str, object] = field(default_factory=dict)
    #: Retention + GC after every this many sessions, keeping the
    #: newest ``restore_sessions`` (0 = only the final ``gc`` phase).
    gc_every: int = 0
    #: How many of the newest sessions the ``restore`` phase restores.
    restore_sessions: int = 2


WORKLOADS: Tuple[Workload, ...] = (
    Workload("pc_mix", None, 32 * MB, 6, 40),
    Workload("pc_mix_staged", None, 32 * MB, 6, 40,
             config={"parallel_workers": 2, "pipeline_uploads": True}),
    Workload("docs_edit", _DOCS, 12 * MB, 4, 40, tiny_count_ratio=0.0,
             restore_sessions=4),
    Workload("vm_media",
             tuple(p.label for p in PAPER_PROFILES if p.label not in _DOCS),
             64 * MB, 6, 32, tiny_count_ratio=0.0),
    Workload("aged_store", None, 14 * MB, 16, 40,
             config={"container_size": 256 * KIB},
             gc_every=4, restore_sessions=4),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


@dataclass
class Corpus:
    """The session trees of one workload, with what verification needs."""

    trees: List[Path]
    #: Per session: relative path -> SHA-256 hex of the file content.
    digests: List[Dict[str, str]]
    #: Per session: logical bytes (the paper's DS).
    logical_bytes: List[int]
    #: SHA-256 over every (session, path, mtime, content digest).
    tree_hash: str


def _profiles(workload: Workload):
    if workload.labels is None:
        return PAPER_PROFILES
    chosen = [p for p in PAPER_PROFILES if p.label in workload.labels]
    total = sum(p.capacity_share for p in chosen)
    return tuple(replace(p, capacity_share=p.capacity_share / total)
                 for p in chosen)


def build_corpus(workload: Workload, seed: int, scale: float,
                 root: Path) -> Corpus:
    """Generate ``workload``'s snapshots and write them under ``root``."""
    if seed < 0:
        raise ValueError("--seed must be >= 0")
    total = max(_MIN_TOTAL, int(workload.total_bytes * scale))
    generator = WorkloadGenerator(
        total_bytes=total, profiles=_profiles(workload),
        tiny_count_ratio=workload.tiny_count_ratio, seed=SHAPE_SEED,
        max_mean_file_size=max(64 * KIB, total // workload.mean_divisor),
        block_namespace=seed << 40)
    corpus = Corpus([], [], [], "")
    tree_hash = hashlib.sha256()
    prev = None
    for snap in generator.sessions(workload.sessions):
        tree = root / f"session-{snap.session:02d}"
        digests: Dict[str, str] = {}
        for path in sorted(snap.files):
            comp, stamp = snap.files[path], snap.mtimes[path]
            target = tree / path
            target.parent.mkdir(parents=True, exist_ok=True)
            if (prev is not None and prev.files.get(path) is comp
                    and prev.mtimes.get(path) == stamp):
                os.link(corpus.trees[-1] / path, target)
                digests[path] = corpus.digests[-1][path]
            else:
                data = materialize_composition(comp)
                target.write_bytes(data)
                mtime_ns = _MTIME_BASE_NS + stamp * 10**9
                os.utime(target, ns=(mtime_ns, mtime_ns))
                digests[path] = hashlib.sha256(data).hexdigest()
            tree_hash.update(
                f"{snap.session}\0{path}\0{stamp}\0{digests[path]}\n"
                .encode())
        corpus.trees.append(tree)
        corpus.digests.append(digests)
        corpus.logical_bytes.append(snap.total_bytes())
        prev = snap
    corpus.tree_hash = tree_hash.hexdigest()
    # Flush the trees now: on ext4 a later fsync (one per PUT) would
    # otherwise wait for this dirty data too.
    os.sync()
    return corpus
