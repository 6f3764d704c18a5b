"""Synthetic PC-backup workload, calibrated to the paper's measurements.

The paper's dataset (351 GB, 10 weekly full backups, 68,972 files across
12 applications from a user's home directory) is private; this package
generates a statistical stand-in:

* :mod:`repro.workloads.profiles` — per-application parameters derived
  from Table 1 (dataset share, mean file size, sub-file redundancy, SC vs
  CDC sensitivity) and the Fig. 1/2 file-size distribution anchors;
* :mod:`repro.workloads.compose` — files as *compositions* of content
  blocks (the substitution that lets one generator drive both the
  real-bytes engine and the paper-scale trace engine);
* :mod:`repro.workloads.generator` — snapshot generation + the weekly
  mutation model (whole-file replacement for compressed media, aligned
  block rewrites for VM images, unaligned edits for documents);
* :mod:`repro.workloads.materialize` — deterministic block → bytes
  materialisation and on-disk tree writing.
"""

from repro.workloads.profiles import (
    AppProfile,
    PAPER_PROFILES,
    TABLE1_REFERENCE,
    SIZE_BUCKETS,
)
from repro.workloads.compose import Extent, Composition, Snapshot
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.materialize import (
    block_bytes,
    materialize_composition,
    materialize_snapshot,
    snapshot_to_memory_source,
    write_snapshot_to_directory,
)

__all__ = [
    "AppProfile",
    "PAPER_PROFILES",
    "TABLE1_REFERENCE",
    "SIZE_BUCKETS",
    "Extent",
    "Composition",
    "Snapshot",
    "WorkloadGenerator",
    "block_bytes",
    "materialize_composition",
    "materialize_snapshot",
    "snapshot_to_memory_source",
    "write_snapshot_to_directory",
]
