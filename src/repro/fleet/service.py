"""Fleet-scale backup service: N clients, one cloud, one directory.

:class:`FleetService` stands up a fleet of AA-Dedupe
:class:`~repro.core.backup.BackupClient` instances against **one shared
backend**: each client gets its own
:class:`~repro.cloud.NamespacedBackend` view (private manifests,
journals and index replicas; shared container/chunk pools), its own
:class:`~repro.simulate.clock.VirtualClock` +
:class:`~repro.cloud.SimulatedCloud` WAN accounting, a disjoint
container-id range, and per-app :class:`~repro.fleet.client.FleetIndex`
subindices probing the service's
:class:`~repro.fleet.directory.GlobalDedupDirectory`.

**Execution model.**  Sessions run in *rounds* (session ``s`` of every
client), each round split into *waves* by client rank (``rank % waves``)
with a directory epoch commit at every wave barrier.  Waves model the
staggered backup windows real fleets schedule to smooth load — and they
are what makes cross-client dedup visible *within* a round: a late-wave
client deduplicates against chunks early-wave clients published minutes
earlier.  Because wave membership is fixed by rank and directory
visibility only changes at commits, results are bit-identical for a
fixed seed no matter how many worker threads execute a wave.

The returned :class:`FleetReport` aggregates per-client
:class:`~repro.core.stats.SessionStats`, splits dedup savings into
intra-client versus cross-client, computes aggregate goodput over the
fleet makespan, and carries the directory's per-shard probe statistics
so the server-side cost model can price directory seeks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock
from typing import Callable, List, Optional, Sequence

from repro.cloud import (
    InMemoryBackend,
    NamespacedBackend,
    SimulatedCloud,
    WANLink,
)
from repro.cloud.wan import PAPER_WAN
from repro.core.backup import BackupClient
from repro.core.naming import CONTAINER_ID_STRIDE
from repro.core.options import SchemeConfig, aa_dedupe_config
from repro.core.stats import SessionStats
from repro.errors import SimulationError
from repro.fleet.client import FleetIndex
from repro.fleet.directory import GlobalDedupDirectory
from repro.metrics.report import Table
from repro.obs.tracer import NOOP_TRACER
from repro.simulate.clock import VirtualClock
from repro.simulate.diskmodel import PAPER_DISK
from repro.util.units import format_bytes

__all__ = ["FleetClient", "FleetClientResult", "FleetReport",
           "FleetService"]

#: Relative width of the per-client uplink distribution.
WAN_SPREAD = 0.5


def _wan_for(rank: int, base: WANLink) -> WANLink:
    """A deterministic per-client WAN link around ``base``.

    Ranks hash to a factor in ``[1 - WAN_SPREAD/2, 1 + WAN_SPREAD/2]``
    — a fleet of consumer uplinks is never uniform, and the spread is
    what makes makespan (slowest client) diverge from mean transfer
    time.
    """
    factor = (1.0 - WAN_SPREAD / 2
              + WAN_SPREAD * (((rank * 2654435761) % 97) / 96))
    return WANLink(up_bandwidth=base.up_bandwidth * factor,
                   down_bandwidth=base.down_bandwidth * factor,
                   request_latency=base.request_latency,
                   concurrent_requests=base.concurrent_requests)


class FleetClient:
    """One fleet member: backup client + its simulated environment."""

    def __init__(self, rank: int, name: str, clock: VirtualClock,
                 cloud: SimulatedCloud, backup: BackupClient) -> None:
        self.rank = rank
        self.name = name
        self.clock = clock
        self.cloud = cloud
        self.backup = backup
        self.sessions: List[SessionStats] = []
        #: FleetIndex instances created for this client, by app label.
        self.indexes: List[FleetIndex] = []

    def flush_publishes(self) -> None:
        for index in self.indexes:
            index.flush_publishes()

    @property
    def remote_probes(self) -> int:
        return sum(ix.remote_probes for ix in self.indexes)

    @property
    def remote_hits(self) -> int:
        return sum(ix.remote_hits for ix in self.indexes)

    @property
    def cross_bytes(self) -> int:
        return sum(ix.adopted_bytes for ix in self.indexes)


@dataclass
class FleetClientResult:
    """Aggregate outcome for one client over the whole run."""

    name: str
    rank: int
    sessions: List[SessionStats]
    transfer_seconds: float
    bill: float
    remote_probes: int
    remote_hits: int
    #: Bytes saved by cross-client dedup (adopted directory entries).
    cross_bytes: int

    @property
    def bytes_scanned(self) -> int:
        return sum(s.bytes_scanned for s in self.sessions)

    @property
    def bytes_unique(self) -> int:
        return sum(s.bytes_unique for s in self.sessions)

    @property
    def bytes_uploaded(self) -> int:
        return sum(s.bytes_uploaded for s in self.sessions)

    @property
    def bytes_saved(self) -> int:
        return self.bytes_scanned - self.bytes_unique

    @property
    def intra_bytes(self) -> int:
        """Dedup savings against the client's own history."""
        return max(0, self.bytes_saved - self.cross_bytes)

    @property
    def goodput(self) -> float:
        """Logical bytes protected per modelled WAN second."""
        return self.bytes_scanned / max(self.transfer_seconds, 1e-9)


@dataclass
class FleetReport:
    """Fleet-wide aggregates plus the directory's shard accounting."""

    clients: List[FleetClientResult]
    shard_rows: List[dict] = field(default_factory=list)
    epochs: int = 0
    directory_entries: int = 0
    committed_entries: int = 0
    #: Cold probes absorbed by shard Bloom fronts (no seek, no batch).
    filter_rejects: int = 0
    #: Ring splits performed by epoch-barrier rebalancing.
    rebalances: int = 0
    #: Committed entries migrated between shards by rebalancing.
    migrated_entries: int = 0

    # -- fleet aggregates ----------------------------------------------
    @property
    def bytes_scanned(self) -> int:
        return sum(c.bytes_scanned for c in self.clients)

    @property
    def bytes_unique(self) -> int:
        return sum(c.bytes_unique for c in self.clients)

    @property
    def bytes_uploaded(self) -> int:
        return sum(c.bytes_uploaded for c in self.clients)

    @property
    def cross_bytes(self) -> int:
        return sum(c.cross_bytes for c in self.clients)

    @property
    def intra_bytes(self) -> int:
        return sum(c.intra_bytes for c in self.clients)

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
        return max((c.transfer_seconds for c in self.clients), default=0.0)

    @property
    def aggregate_goodput(self) -> float:
        """Fleet logical bytes protected per second of makespan."""
        return self.bytes_scanned / max(self.makespan_seconds, 1e-9)

    @property
    def total_bill(self) -> float:
        return sum(c.bill for c in self.clients)

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
            per_client.add_row([
                c.name, format_bytes(c.bytes_scanned),
                format_bytes(c.bytes_unique),
                format_bytes(c.bytes_uploaded),
                format_bytes(c.cross_bytes),
                c.goodput, c.transfer_seconds, c.bill,
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
        summary.add_row(["shard splits", self.rebalances])
        summary.add_row(["entries migrated", self.migrated_entries])
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
                            row.get("filter_rejects", 0),
                            row["publishes"], row["accepted"]])
        out.append(shards.render())
        return "\n\n".join(out)


class FleetService:
    """Drive ``clients`` concurrent backup clients over one backend.

    ``config_factory(rank)`` customises each client's scheme (default:
    paper AA-Dedupe for everyone); ``directory`` is the shared
    :class:`~repro.fleet.directory.GlobalDedupDirectory` (default: four
    exact memory shards per app, no fronts — build one to configure
    tiers); ``waves`` controls intra-round staggering (>= 1; 1 means a
    single barrier per round — no cross-client dedup within a round,
    only across rounds).
    """

    def __init__(self,
                 clients: int = 8,
                 backend=None,
                 config_factory: Optional[
                     Callable[[int], SchemeConfig]] = None,
                 directory: Optional[GlobalDedupDirectory] = None,
                 waves: int = 2,
                 wan: WANLink = PAPER_WAN,
                 tracer=None) -> None:
        if clients < 1:
            raise SimulationError("fleet needs at least one client")
        if waves < 1:
            raise SimulationError("waves must be >= 1")
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.backend = backend if backend is not None else InMemoryBackend()
        self.directory = directory if directory is not None else \
            GlobalDedupDirectory(tracer=self.tracer)
        self.waves = waves
        self._epochs_committed = 0
        self._entries_committed = 0
        self._backend_lock = Lock()
        self.clients: List[FleetClient] = []
        for rank in range(clients):
            name = f"c{rank:03d}"
            view = NamespacedBackend(self.backend, name,
                                     lock=self._backend_lock)
            clock = VirtualClock()
            cloud = SimulatedCloud(view, wan=_wan_for(rank, wan),
                                   clock=clock, tracer=self.tracer)
            client = FleetClient(rank, name, clock, cloud, backup=None)
            config = (config_factory(rank) if config_factory is not None
                      else aa_dedupe_config())

            def factory(app: str, _rank=rank, _client=client) -> FleetIndex:
                index = FleetIndex(self.directory, app, _rank)
                _client.indexes.append(index)
                return index

            client.backup = BackupClient(
                cloud, config, index_factory=factory,
                first_container_id=rank * CONTAINER_ID_STRIDE,
                tracer=self.tracer)
            self.clients.append(client)

    # ------------------------------------------------------------------
    def _run_session(self, client: FleetClient, source) -> None:
        stats = client.backup.backup(source)
        # Offer this session's new chunks before the wave's epoch commit.
        client.flush_publishes()
        client.sessions.append(stats)

    def run(self, sources: Sequence[Sequence],
            max_workers: int = 4) -> FleetReport:
        """Execute ``sources[client][session]`` across the fleet.

        Every client must bring the same number of sessions; rounds are
        global barriers, waves stagger clients within a round.
        """
        if len(sources) != len(self.clients):
            raise SimulationError(
                f"got sources for {len(sources)} clients, "
                f"fleet has {len(self.clients)}")
        rounds = {len(s) for s in sources}
        if len(rounds) > 1:
            raise SimulationError(
                "all clients must run the same number of sessions")
        n_rounds = rounds.pop() if rounds else 0
        # One pool for the whole run: spinning a fresh executor up and
        # down per wave serialised thread start/join into every barrier,
        # so rounds stopped scaling with ``max_workers``.  The wave
        # barrier itself (result() then epoch commit) is unchanged.
        with self.tracer.span("fleet.run", clients=len(self.clients),
                              rounds=n_rounds), \
                ThreadPoolExecutor(max_workers=max(1, max_workers),
                                   thread_name_prefix="fleet") as pool:
            for round_no in range(n_rounds):
                for wave in range(self.waves):
                    members = [c for c in self.clients
                               if c.rank % self.waves == wave]
                    if not members:
                        continue
                    futures = [
                        pool.submit(self._run_session, client,
                                    sources[client.rank][round_no])
                        for client in members
                    ]
                    for future in futures:
                        future.result()
                    self._entries_committed += self.directory.commit_epoch()
                    self._epochs_committed += 1
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("fleet_sessions_total").inc(
                sum(len(c.sessions) for c in self.clients))
            metrics.gauge("fleet_directory_entries").set(
                len(self.directory))
        return self.report()

    # ------------------------------------------------------------------
    def replicate(self, policy=None, domains=None):
        """Run a durability replication pass over the shared backend.

        Criticality is fleet-wide (every client's manifests count, so a
        shared container referenced by many clients tiers up) and the
        replicas land in the shared pool every tenant view can fail
        over to.  Returns the
        :class:`~repro.durability.replicate.ReplicationReport`.
        """
        from repro.durability import replicate_cloud
        with self._backend_lock:
            return replicate_cloud(self.backend, policy=policy,
                                   domains=domains, tracer=self.tracer)

    # ------------------------------------------------------------------
    def report(self) -> FleetReport:
        results = [
            FleetClientResult(
                name=c.name, rank=c.rank, sessions=list(c.sessions),
                transfer_seconds=c.cloud.transfer_seconds(),
                bill=c.cloud.bill(),
                remote_probes=c.remote_probes,
                remote_hits=c.remote_hits,
                cross_bytes=c.cross_bytes,
            )
            for c in self.clients
        ]
        return FleetReport(
            clients=results,
            shard_rows=self.directory.stats_rows(),
            epochs=self._epochs_committed,
            directory_entries=len(self.directory),
            committed_entries=self._entries_committed,
            filter_rejects=self.directory.filter_rejects,
            rebalances=self.directory.rebalances,
            migrated_entries=self.directory.migrated_entries,
        )

    def close(self) -> None:
        for client in self.clients:
            client.backup.close()
        self.directory.close()
