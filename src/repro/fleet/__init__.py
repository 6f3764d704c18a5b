"""Fleet-scale multi-client backup simulation (see docs/FLEET.md).

The paper evaluates one personal-computing client; a cloud backup
*service* runs thousands.  This package scales the reproduced engine to
a fleet: N concurrent backup jobs of one :class:`~repro.service.BackupService`
(:func:`fleet_spec`) over one shared backend, with a server-side sharded
global dedup directory providing cross-client deduplication on top of
the paper's per-client application-aware dedup.
"""

from repro.fleet.client import FleetIndex
from repro.fleet.directory import DirectoryShard, GlobalDedupDirectory
from repro.fleet.service import FleetReport, fleet_spec
from repro.fleet.workload import (
    Corpus,
    generated_fleet_sources,
    synthetic_fleet_sources,
)

__all__ = [
    "Corpus",
    "DirectoryShard",
    "FleetIndex",
    "FleetReport",
    "GlobalDedupDirectory",
    "fleet_spec",
    "generated_fleet_sources",
    "synthetic_fleet_sources",
]
