"""Application profiles calibrated to the paper's Table 1 and Figs. 1–2.

Each :class:`AppProfile` captures, for one of the twelve evaluated
applications: its share of dataset capacity and mean file size (Table 1),
how its sub-file redundancy arises (``dup_mode``), how much of it there
is (``sub_dup``, set to ``1 − 1/DR`` from Table 1), how its content
interacts with CDC (``density_class`` — the Observation-3 forced-cut
effect), and how it evolves week over week (the mutation model behind
the 10-session evaluation).

Redundancy mechanisms (``dup_mode``):

* ``"subshare"`` — compressed media: a small aligned shared prefix
  (common headers/metadata) and otherwise unique high-entropy content;
  yields the tiny, chunking-insensitive DRs of Table 1's top rows.
* ``"block"`` — VM images: files are aligned 64 KiB units drawn from a
  per-app pool with probability ``sub_dup``; SC (8 KiB, aligned) finds
  these duplicates, while sparse CDC boundaries (> max chunk size) force
  position-dependent cuts that miss some — reproducing SC DR > CDC DR.
* ``"version"`` — documents: some files are versions of others (shared
  prefix, divergent tail, optionally with unaligned inserts); inserts
  shift SC's grid but not CDC's content-defined cuts — reproducing
  CDC DR ≥ SC DR for TXT/PPT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.classify.filetype import Category
from repro.util.units import KIB, MIB

__all__ = [
    "AppProfile",
    "PAPER_PROFILES",
    "TINY_PROFILE",
    "TABLE1_REFERENCE",
    "SIZE_BUCKETS",
    "FIG12_SIZE_MODEL",
    "DENSITY_DENSE",
    "DENSITY_SPARSE",
    "DENSITY_MEDIUM",
    "DENSITY_SPACING",
]

# CDC boundary-density classes (embedded in block ids, see compose.py).
DENSITY_DENSE = 0    #: text-like content, boundaries every ~8 KiB
DENSITY_SPARSE = 1   #: VM-image-like, boundaries every ~32 KiB (> max!)
DENSITY_MEDIUM = 2   #: pdf/exe-like, boundaries every ~12 KiB

#: Mean simulated spacing between CDC boundary candidates, per class.
DENSITY_SPACING: Dict[int, int] = {
    DENSITY_DENSE: 8 * KIB,
    DENSITY_SPARSE: 32 * KIB,
    DENSITY_MEDIUM: 12 * KIB,
}


@dataclass(frozen=True)
class AppProfile:
    """Generation parameters for one application type."""

    label: str
    extension: str
    category: Category
    #: Fraction of (non-tiny) dataset capacity (normalised Table 1 sizes).
    capacity_share: float
    #: Mean file size in bytes (Table 1).
    mean_file_size: int
    #: Lognormal sigma of file sizes.
    size_sigma: float
    #: How sub-file redundancy arises: "subshare" | "block" | "version".
    dup_mode: str
    #: Target duplicate byte fraction (= 1 − 1/DR from Table 1, SC column).
    sub_dup: float
    #: CDC boundary density class of this app's content.
    density_class: int
    #: For "version" mode: probability a version copy gets an unaligned
    #: insert (makes CDC beat SC, as for TXT/PPT).
    version_insert_prob: float = 0.0
    #: Probability a newly created file is a byte-exact copy of an
    #: existing one (duplicate downloads, "Copy of ..." documents) —
    #: the traffic whole-file dedup (BackupPC) exploits but incremental
    #: backup (Jungle Disk) cannot.
    copy_prob: float = 0.04

    # -- weekly mutation model -----------------------------------------
    #: Fraction of files newly created each week.
    weekly_new: float = 0.02
    #: Fraction of files deleted each week.
    weekly_delete: float = 0.005
    #: Fraction of files modified each week.
    weekly_modify: float = 0.05
    #: For "block" mode: fraction of a modified file rewritten (aligned).
    rewrite_fraction: float = 0.05


#: Capacity shares of the 351 GB *evaluation workload*.  The paper never
#: publishes its composition (Table 1 describes a separate 41 GB study
#: dataset); these shares model a media-heavy home directory with one
#: actively-used VM, keeping every Table-1 redundancy behaviour intact.
EVAL_SHARES = {
    "avi": 0.090, "mp3": 0.055, "iso": 0.050, "dmg": 0.040, "rar": 0.055,
    "jpg": 0.090, "pdf": 0.050, "exe": 0.020, "vmdk": 0.350, "doc": 0.070,
    "txt": 0.100, "ppt": 0.030,
}


def _share(label: str) -> float:
    return EVAL_SHARES[label]


#: The twelve applications, calibrated to Table 1.
PAPER_PROFILES: Tuple[AppProfile, ...] = (
    AppProfile("avi", "avi", Category.COMPRESSED, _share("avi"),
               198 * MIB, 0.5, "subshare", 1 - 1 / 1.0002, DENSITY_DENSE,
               weekly_new=0.02, weekly_modify=0.002),
    AppProfile("mp3", "mp3", Category.COMPRESSED, _share("mp3"),
               5 * MIB, 0.5, "subshare", 1 - 1 / 1.001, DENSITY_DENSE,
               weekly_new=0.02, weekly_modify=0.005),
    AppProfile("iso", "iso", Category.COMPRESSED, _share("iso"),
               646 * MIB, 0.4, "subshare", 1 - 1 / 1.002, DENSITY_DENSE,
               weekly_new=0.01, weekly_modify=0.002),
    AppProfile("dmg", "dmg", Category.COMPRESSED, _share("dmg"),
               86 * MIB, 0.5, "subshare", 1 - 1 / 1.004, DENSITY_DENSE,
               weekly_new=0.02, weekly_modify=0.005),
    AppProfile("rar", "rar", Category.COMPRESSED, _share("rar"),
               12 * MIB, 0.7, "subshare", 1 - 1 / 1.008, DENSITY_DENSE,
               weekly_new=0.03, weekly_modify=0.01),
    AppProfile("jpg", "jpg", Category.COMPRESSED, _share("jpg"),
               2 * MIB, 0.7, "subshare", 1 - 1 / 1.009, DENSITY_DENSE,
               weekly_new=0.04, weekly_modify=0.005),
    AppProfile("pdf", "pdf", Category.STATIC, _share("pdf"),
               403 * KIB, 0.9, "version", 1 - 1 / 1.015, DENSITY_MEDIUM,
               weekly_new=0.03, weekly_modify=0.01),
    AppProfile("exe", "exe", Category.STATIC, _share("exe"),
               298 * KIB, 0.9, "version", 1 - 1 / 1.063, DENSITY_MEDIUM,
               weekly_new=0.01, weekly_modify=0.01),
    AppProfile("vmdk", "vmdk", Category.STATIC, _share("vmdk"),
               312 * MIB, 0.4, "block", 1 - 1 / 1.286, DENSITY_SPARSE,
               weekly_new=0.0, weekly_delete=0.0, weekly_modify=0.9,
               rewrite_fraction=0.05),
    AppProfile("doc", "doc", Category.DYNAMIC, _share("doc"),
               180 * KIB, 0.8, "version", 1 - 1 / 1.231, DENSITY_DENSE,
               version_insert_prob=0.1,
               weekly_new=0.03, weekly_modify=0.15),
    AppProfile("txt", "txt", Category.DYNAMIC, _share("txt"),
               615 * KIB, 1.0, "version", 1 - 1 / 1.232, DENSITY_DENSE,
               version_insert_prob=0.8,
               weekly_new=0.03, weekly_modify=0.15),
    AppProfile("ppt", "ppt", Category.DYNAMIC, _share("ppt"),
               977 * KIB, 0.8, "version", 1 - 1 / 1.275, DENSITY_DENSE,
               version_insert_prob=0.6,
               weekly_new=0.03, weekly_modify=0.12),
)

#: Tiny-file population (Observation 1): ~61 % of file count, ~1.2 % of
#: capacity; modelled as its own pseudo-application.
TINY_PROFILE = AppProfile(
    "tinymisc", "txt", Category.DYNAMIC, 0.012, 2 * KIB, 0.9,
    "version", 0.0, DENSITY_DENSE,
    weekly_new=0.02, weekly_delete=0.01, weekly_modify=0.05)

#: Table 1 verbatim, for benches that print paper-vs-measured:
#: label -> (dataset MB, mean file size B, SC DR, CDC DR).
TABLE1_REFERENCE: Dict[str, Tuple[float, int, float, float]] = {
    "avi": (2243, 198 * MIB, 1.0002, 1.0002),
    "mp3": (1410, 5 * MIB, 1.001, 1.002),
    "iso": (1291, 646 * MIB, 1.002, 1.002),
    "dmg": (1032, 86 * MIB, 1.004, 1.004),
    "rar": (1452, 12 * MIB, 1.008, 1.008),
    "jpg": (1797, 2 * MIB, 1.009, 1.009),
    "pdf": (910, 403 * KIB, 1.015, 1.014),
    "exe": (400, 298 * KIB, 1.063, 1.062),
    "vmdk": (28473, 312 * MIB, 1.286, 1.168),
    "doc": (550, 180 * KIB, 1.231, 1.234),
    "txt": (906, 615 * KIB, 1.232, 1.259),
    "ppt": (320, 977 * KIB, 1.275, 1.3),
}

#: Fig. 1/2 bucket anchors: (upper bound, file-count share, capacity share).
#: The paper states the <10 KB and >1 MB anchors explicitly; the middle
#: bucket is the complement.
SIZE_BUCKETS: Tuple[Tuple[float, float, float], ...] = (
    (10 * KIB, 0.610, 0.012),
    (1 * MIB, 0.376, 0.238),
    (float("inf"), 0.014, 0.750),
)

#: Lognormal mixture reproducing the Fig. 1/2 distribution:
#: (weight, median bytes, sigma) per component (tiny/medium/large).
FIG12_SIZE_MODEL: Tuple[Tuple[float, float, float], ...] = (
    (0.610, 2 * KIB, 0.8),
    (0.376, 60 * KIB, 1.0),
    (0.014, 6 * MIB, 0.9),
)
