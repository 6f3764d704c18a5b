"""Fleet-scale multi-client backup simulation (see docs/FLEET.md).

The paper evaluates one personal-computing client; a cloud backup
*service* runs thousands.  This package scales the reproduced engine to
a fleet: N concurrent :class:`~repro.core.backup.BackupClient` sessions
over one shared backend, with a server-side sharded global dedup
directory providing cross-client deduplication on top of the paper's
per-client application-aware dedup.
"""

from repro.fleet.client import FleetIndex
from repro.fleet.directory import DirectoryShard, GlobalDedupDirectory
from repro.fleet.service import (
    FleetClient,
    FleetClientResult,
    FleetReport,
    FleetService,
)
from repro.fleet.workload import (
    Corpus,
    generated_fleet_sources,
    synthetic_fleet_sources,
)

__all__ = [
    "Corpus",
    "DirectoryShard",
    "FleetClient",
    "FleetClientResult",
    "FleetIndex",
    "FleetReport",
    "FleetService",
    "GlobalDedupDirectory",
    "generated_fleet_sources",
    "synthetic_fleet_sources",
]
