"""Fleet-scale backup: N clients as the jobs of one backup service.

A fleet is a :class:`~repro.service.spec.ServiceSpec` whose jobs share
one backend and one :class:`~repro.fleet.directory.GlobalDedupDirectory`
(see docs/FLEET.md).  :func:`fleet_spec` turns
``sources[client][session]`` into jobs ``c000``, ``c001``, … staggered
into waves; a :class:`~repro.service.runner.BackupService` given
``directory=`` runs them, each behind its own simulated uplink, and
:class:`FleetReport` reads the run back::

    service = BackupService(fleet_spec(sources, waves=2),
                            directory=GlobalDedupDirectory())
    service.run(max_workers=4)
    report = FleetReport.of(service)

Waves model the staggered backup windows real fleets schedule, and
they make cross-client dedup visible *within* a round: a late-wave
client deduplicates against chunks early-wave clients published at an
earlier barrier.  Wave membership is fixed by rank and directory
visibility only changes at commits, so results are bit-identical for a
fixed seed at any ``max_workers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import SimulationError
from repro.metrics.report import Table
from repro.service.schedule import IntervalSchedule
from repro.service.spec import JobSpec, ServiceSpec
from repro.simulate.diskmodel import PAPER_DISK
from repro.util.units import format_bytes

__all__ = ["FleetReport", "fleet_spec"]


def fleet_spec(sources: Sequence[Sequence], waves: int = 2,
               scheme: str = "AA-Dedupe",
               container_size: Optional[int] = None) -> ServiceSpec:
    """The service spec of a fleet backing up ``sources[client][session]``.

    Every client must bring the same number of sessions; ``waves``
    (>= 1) staggers clients within a round — 1 means a single barrier
    per round, so no cross-client dedup within a round, only across.
    """
    if not sources:
        raise SimulationError("fleet needs at least one client")
    if waves < 1:
        raise SimulationError("waves must be >= 1")
    rounds = {len(s) for s in sources}
    if len(rounds) > 1:
        raise SimulationError(
            "all clients must run the same number of sessions")
    jobs = tuple(
        JobSpec(name=f"c{rank:03d}", source=per_client.__getitem__,
                scheme=scheme, container_size=container_size,
                schedule=IntervalSchedule(interval=waves,
                                          offset=rank % waves))
        for rank, per_client in enumerate(sources))
    # Client ``rank``'s last session falls at ``offset + (rounds-1) *
    # waves``, the latest of them one second before round ``rounds``.
    return ServiceSpec(jobs=jobs, until=rounds.pop() * waves - 1)


@dataclass
class FleetReport:
    """Fleet-wide aggregates plus the directory's shard accounting.

    ``clients`` holds one row per client in rank order: ``name``, the
    successful ``sessions`` (their :class:`~repro.core.stats.SessionStats`),
    the byte totals over them, the uplink's ``transfer_seconds`` and
    ``bill``, and the client's directory counters (``remote_probes``,
    ``remote_hits`` and ``cross_bytes``, the bytes saved by adopting
    other clients' chunks).
    """

    clients: List[dict]
    shard_rows: List[dict]
    epochs: int
    directory_entries: int
    #: Cold probes absorbed by shard Bloom fronts (no seek, no batch).
    filter_rejects: int

    @classmethod
    def of(cls, service) -> "FleetReport":
        """Read a fleet off a service run with a ``directory``:
        its job reports, each client's uplink meters, and the
        directory's traffic counts for each client and shard rows."""
        directory = service.directory
        clients = []
        for runtime in service.jobs:
            name = runtime.spec.name
            sessions = [r.stats for r in service.reports
                        if r.job == name and r.ok]
            traffic = directory.traffic.get(runtime.rank, {})
            cloud = runtime.client.cloud
            scanned = sum(s.bytes_scanned for s in sessions)
            unique = sum(s.bytes_unique for s in sessions)
            cross = traffic.get("bytes", 0)
            clients.append({
                "name": name,
                "sessions": sessions,
                "bytes_scanned": scanned,
                "bytes_unique": unique,
                "bytes_uploaded": sum(s.bytes_uploaded for s in sessions),
                "cross_bytes": cross,
                # Dedup savings against the client's own history.
                "intra_bytes": max(0, scanned - unique - cross),
                "transfer_seconds": cloud.transfer_seconds(),
                "bill": cloud.bill(),
                "remote_probes": traffic.get("probes", 0),
                "remote_hits": traffic.get("hits", 0),
            })
        return cls(clients=clients, shard_rows=directory.stats_rows(),
                   epochs=directory.epoch,
                   directory_entries=len(directory),
                   filter_rejects=directory.filter_rejects)

    # -- fleet aggregates ----------------------------------------------
    def _total(self, key: str):
        return sum(c[key] for c in self.clients)

    @property
    def bytes_scanned(self) -> int:
        return self._total("bytes_scanned")

    @property
    def bytes_unique(self) -> int:
        return self._total("bytes_unique")

    @property
    def cross_bytes(self) -> int:
        return self._total("cross_bytes")

    @property
    def intra_bytes(self) -> int:
        return self._total("intra_bytes")

    @property
    def dedup_ratio(self) -> float:
        """Fleet dedup ratio: logical bytes over stored bytes."""
        unique = self.bytes_unique
        if unique <= 0:
            return float("inf") if self.bytes_scanned else 1.0
        return self.bytes_scanned / unique

    @property
    def cross_client_fraction(self) -> float:
        """Share of dedup savings owed to *other* clients' uploads."""
        saved = self.cross_bytes + self.intra_bytes
        return self.cross_bytes / saved if saved else 0.0

    @property
    def makespan_seconds(self) -> float:
        """Modelled wall time of the fleet backup (slowest client)."""
        return max((c["transfer_seconds"] for c in self.clients),
                   default=0.0)

    @property
    def aggregate_goodput(self) -> float:
        """Fleet logical bytes protected per second of makespan."""
        return self.bytes_scanned / max(self.makespan_seconds, 1e-9)

    def server_seek_seconds(self, disk=PAPER_DISK) -> float:
        """Directory disk time if every disk probe were a seek on
        ``disk`` — how the cost model prices a disk-backed directory.
        Batched probing keeps this sub-linear in fingerprints probed."""
        probes = sum(row["disk_probes"] for row in self.shard_rows)
        return disk.random_io_seconds(probes)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable report: per-client table + shard table."""
        out = []
        per_client = Table(
            ["client", "scanned", "stored", "uploaded", "cross-dedup",
             "goodput B/s", "wan s", "bill $"],
            title="fleet clients")
        for c in self.clients:
            seconds = c["transfer_seconds"]
            per_client.add_row([
                c["name"], format_bytes(c["bytes_scanned"]),
                format_bytes(c["bytes_unique"]),
                format_bytes(c["bytes_uploaded"]),
                format_bytes(c["cross_bytes"]),
                # Goodput: logical bytes protected per modelled WAN second.
                c["bytes_scanned"] / max(seconds, 1e-9), seconds,
                c["bill"],
            ])
        out.append(per_client.render())
        summary = Table(["metric", "value"], title="fleet summary")
        summary.add_row(["clients", len(self.clients)])
        summary.add_row(["scanned", format_bytes(self.bytes_scanned)])
        summary.add_row(["stored", format_bytes(self.bytes_unique)])
        summary.add_row(["dedup ratio", self.dedup_ratio])
        summary.add_row(["cross-client savings",
                         format_bytes(self.cross_bytes)])
        summary.add_row(["intra-client savings",
                         format_bytes(self.intra_bytes)])
        summary.add_row(["cross-client fraction",
                         self.cross_client_fraction])
        summary.add_row(["makespan (s)", self.makespan_seconds])
        summary.add_row(["aggregate goodput (B/s)",
                         self.aggregate_goodput])
        summary.add_row(["directory entries", self.directory_entries])
        summary.add_row(["directory epochs", self.epochs])
        summary.add_row(["filter rejects", self.filter_rejects])
        summary.add_row(["server seek seconds",
                         self.server_seek_seconds()])
        out.append(summary.render())
        shards = Table(
            ["shard", "entries", "batches", "probes", "hits",
             "filtered", "publishes", "accepted"],
            title="directory shards")
        for row in self.shard_rows:
            shards.add_row([row["shard"], row["entries"], row["batches"],
                            row["probes"], row["hits"],
                            row["filter_rejects"],
                            row["publishes"], row["accepted"]])
        out.append(shards.render())
        return "\n\n".join(out)
