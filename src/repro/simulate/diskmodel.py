"""Disk model: sequential bandwidth, seeks, and index residency.

Two roles:

1. **Data path** — reading the backup source from the laptop's 250 GB
   SATA disk at ~70 MB/s sequential.
2. **Index path** — the on-disk index lookup bottleneck (the DDFS
   problem, paper Secs. II/III-E): when a fingerprint index outgrows the
   RAM it may cache in, a fraction of probes *and inserts* become random
   disk IOs.  :class:`IndexResidencyModel` computes that fraction from
   the index's entry count; the application-aware index wins precisely
   because each per-application subindex stays under the budget while a
   global index does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import MB, MIB

__all__ = ["DiskModel", "PAPER_DISK", "IndexResidencyModel",
           "PAPER_RESIDENCY"]


@dataclass(frozen=True)
class DiskModel:
    """Mechanical-disk cost book (2009 laptop 5400 rpm SATA)."""

    #: Sequential read bandwidth, bytes/second.
    sequential_read_bw: float = 70 * MB
    #: Average random access (seek + rotation), seconds.
    seek_seconds: float = 0.009

    def read_seconds(self, nbytes: float) -> float:
        """Time to stream-read ``nbytes``."""
        return nbytes / self.sequential_read_bw

    def random_io_seconds(self, count: float) -> float:
        """Time for ``count`` independent random IOs."""
        return count * self.seek_seconds


#: The paper's client disk.
PAPER_DISK = DiskModel()


@dataclass(frozen=True)
class IndexResidencyModel:
    """RAM residency of a fingerprint index and the IO cost of spilling.

    ``ram_budget`` is the memory the client can devote to *one* active
    index (the paper's 4 GB laptop, minus OS/apps/chunk buffers, leaves
    on the order of 200 MB for the hot index).  ``entry_bytes`` is the
    in-memory footprint per entry including hash-table overhead.
    """

    ram_budget: int = 112 * MIB
    entry_bytes: int = 48
    #: Random IOs paid per spilled probe (bucket read; updates write back).
    ios_per_miss: float = 1.5
    #: Locality exponent: weekly backups re-probe fingerprints in nearly
    #: the same order, so an LRU cache serves a *hot* subset better than
    #: uniform-random probing would — miss probability is modelled as
    #: ``(1 - resident_fraction) ** locality_exponent``.
    locality_exponent: float = 2.0

    def index_bytes(self, entries: int) -> int:
        """In-memory size of an index with ``entries`` fingerprints."""
        return entries * self.entry_bytes

    def resident_fraction(self, entries: int) -> float:
        """Fraction of the index that fits in the RAM budget."""
        size = self.index_bytes(entries)
        if size <= 0:
            return 1.0
        return min(1.0, self.ram_budget / size)

    def miss_ratio(self, entries: int) -> float:
        """Probability that a probe leaves RAM (locality-adjusted)."""
        spill = 1.0 - self.resident_fraction(entries)
        return spill ** self.locality_exponent

    def lookup_io_count(self, lookups: int, entries: int) -> float:
        """Expected number of random IOs for ``lookups`` probes."""
        return lookups * self.miss_ratio(entries) * self.ios_per_miss

    def insert_io_count(self, inserts: int, entries: int) -> float:
        """Expected random IOs for ``inserts`` new entries.

        When the index has spilled, an insert must update the on-disk
        structure (the random-write half of the DDFS bottleneck); while
        fully resident, inserts are free (flushed sequentially later).
        """
        return inserts * self.miss_ratio(entries) * self.ios_per_miss


#: Residency assumptions used for the paper-scale evaluation.
PAPER_RESIDENCY = IndexResidencyModel()
