"""CPU cost model of the paper's client (2.53 GHz Intel Core 2 Duo).

The model charges cycles per byte for each hash function and for the
rolling-hash CDC boundary scan, plus fixed per-chunk and per-file
overheads.  Constants are chosen to reproduce the paper's Fig. 3/4
*shape* on that 2009-era CPU:

* Rabin (table-driven, used as a block hash) ≈ 15 cycles/B — the cheap
  "weak" hash, ~170 MB/s on the paper's laptop; Fig. 3 shows Rabin
  clearly cheapest;
* MD5 ≈ 40 cycles/B (~63 MB/s) and SHA-1 ≈ 55 cycles/B (~46 MB/s) —
  prototype-grade single-thread figures consistent with Fig. 3's
  seconds-scale execution times for a 60 MB dataset (an unoptimised 2011
  C++ prototype runs well below tuned OpenSSL speeds);
* CDC boundary detection ≈ 90 cycles/B (~28 MB/s) — a 1-byte-step
  rolling fingerprint with per-position mask test dominates CDC cost,
  which is why the paper keeps SHA-1 for CDC ("most of its computational
  overhead is on identifying the chunk boundaries instead of chunk
  fingerprinting");
* per-chunk bookkeeping ≈ 30 k cycles and per-file overhead ≈ 150 k
  cycles — metadata, allocation, dispatch; these make WFC and SC total
  times nearly equal for a fixed dataset (Fig. 3's observation that time
  is dominated by data capacity, not granularity).

:func:`dedup_cpu_seconds` prices an :class:`~repro.core.stats.OpCounters`
— produced identically by the real engine and the trace engine — into
seconds of virtual CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.stats import OpCounters

__all__ = ["CPUModel", "PAPER_CPU", "dedup_cpu_seconds"]


@dataclass(frozen=True)
class CPUModel:
    """Cycle-accurate-ish cost book for one CPU."""

    #: Clock frequency in Hz (paper platform: 2.53 GHz Core 2 Duo).
    frequency_hz: float = 2.53e9

    #: Fingerprinting cost, cycles per byte, per hash name.
    hash_cycles_per_byte: Mapping[str, float] = field(default_factory=lambda: {
        "rabin12": 15.0,
        "rabin64": 12.0,
        "md5": 40.0,
        "sha1": 55.0,
    })

    #: Rolling-hash boundary identification (CDC only), cycles per byte.
    cdc_scan_cycles_per_byte: float = 90.0

    #: Fixed overhead per produced chunk (metadata, index record).
    cycles_per_chunk: float = 30_000.0

    #: Fixed overhead per file (open/stat/classify/dispatch).
    cycles_per_file: float = 150_000.0

    #: RAM index probe cost (hash-table lookup).
    cycles_per_memory_lookup: float = 3_000.0

    # ------------------------------------------------------------------
    def hash_seconds(self, hash_name: str, nbytes: float) -> float:
        """Seconds to fingerprint ``nbytes`` with ``hash_name``."""
        cpb = self.hash_cycles_per_byte.get(hash_name)
        if cpb is None:
            raise KeyError(f"no cycle cost for hash {hash_name!r}")
        return nbytes * cpb / self.frequency_hz

    def cdc_scan_seconds(self, nbytes: float) -> float:
        """Seconds of rolling-hash boundary scanning over ``nbytes``."""
        return nbytes * self.cdc_scan_cycles_per_byte / self.frequency_hz


#: The paper's experiment platform.
PAPER_CPU = CPUModel()


def dedup_cpu_seconds(ops: OpCounters, cpu: CPUModel = PAPER_CPU,
                      files: int = 0) -> float:
    """Price an operation ledger into virtual CPU seconds.

    Covers hashing, CDC scanning, per-chunk and per-file overheads, and
    RAM index probes.  Disk costs (data read, on-disk index seeks) are
    priced separately by :class:`~repro.simulate.diskmodel.DiskModel`
    because they overlap differently.
    """
    seconds = 0.0
    for hash_name, nbytes in ops.hashed_bytes.items():
        seconds += cpu.hash_seconds(hash_name, nbytes)
    seconds += cpu.cdc_scan_seconds(ops.cdc_scanned_bytes)
    seconds += ops.chunks_produced * cpu.cycles_per_chunk / cpu.frequency_hz
    seconds += files * cpu.cycles_per_file / cpu.frequency_hz
    memory_lookups = ops.index_lookups - ops.index_disk_probes
    seconds += (max(0, memory_lookups)
                * cpu.cycles_per_memory_lookup / cpu.frequency_hz)
    return seconds
