"""Durability bench — restore success under a fault-domain kill.

Backs up a fleet of AA-Dedupe clients against one shared backend, then
kills an **entire fault domain** (every primary container assigned to
it plus every replica it hosts) and measures what the paper's use case
ultimately cares about: *can every client still restore every
session?*  Two arms:

* **no replication** — the seed behaviour: each container exists once,
  so losing a domain loses ~1/len(domains) of the containers and the
  sessions referencing them fail to restore;
* **replication R>=2** — a criticality-weighted
  :class:`~repro.durability.policy.DurabilityPolicy` (base 2 copies)
  places replicas in surviving domains;
  :class:`~repro.core.restore.RestoreClient` fails over, so restores
  succeed despite the dead domain.

After the kill, the replicated arm runs the full recovery loop the
subsystem promises: scrub surfaces repairable findings, ``repair``
rebuilds every lost copy from survivors (the reported **repair
traffic**), a second scrub comes back clean, and a GC pass sweeps
nothing it should not (zero orphaned replicas, still clean).

Set ``BENCH_SMOKE=1`` to run a down-scaled configuration
(CI).
"""

from __future__ import annotations


from conftest import SMOKE, emit

from repro.cloud import NamespacedBackend
from repro.core import RestoreClient, collect_garbage
from repro.core import naming
from repro.core.scrub import scrub_cloud
from repro.durability import (DurabilityPolicy, ReplicationPlan,
                              kill_domain, repair_cloud, replicate_cloud)
from repro.errors import ReproError
from repro.fleet import (GlobalDedupDirectory, fleet_spec,
                         synthetic_fleet_sources)
from repro.metrics import Table
from repro.service import BackupService
from repro.util.units import KIB, format_bytes

CLIENTS = 3 if SMOKE else 6
SESSIONS = 2 if SMOKE else 3
SEED = 2011
DOMAINS = ("d0", "d1", "d2")
KILLED = "d0"


def _run_fleet():
    sources = synthetic_fleet_sources(CLIENTS, SESSIONS, seed=SEED)
    service = BackupService(
        fleet_spec(sources, waves=1, container_size=32 * KIB),
        directory=GlobalDedupDirectory())
    service.run(max_workers=2)
    service.close()
    return service


def _restore_success(backend) -> tuple[int, int, int]:
    """(succeeded, attempted, failovers) over every client x session."""
    ok = attempted = failovers = 0
    for rank in range(CLIENTS):
        view = NamespacedBackend(backend, f"c{rank:03d}")
        for session in range(SESSIONS):
            attempted += 1
            client = RestoreClient(view)
            try:
                _files, report = client.restore_to_memory(session)
            except ReproError:
                continue
            ok += 1
            failovers += report.failovers
    return ok, attempted, failovers


def _arm(replicate: bool) -> dict:
    backend = _run_fleet().backend
    result = dict(replica_bytes=0, repair_bytes=0)
    if replicate:
        # Criticality is fleet-wide: every tenant's manifests count.
        rep = replicate_cloud(
            backend, policy=DurabilityPolicy(base_replicas=2),
            domains=DOMAINS)
        assert not rep.problems
        result["replica_bytes"] = rep.bytes_copied
    primaries = len(backend.list(naming.CONTAINER_PREFIX))
    result["killed"] = kill_domain(backend, KILLED, DOMAINS)
    result["primaries"] = primaries
    ok, attempted, failovers = _restore_success(backend)
    result.update(ok=ok, attempted=attempted, failovers=failovers,
                  success=ok / attempted, backend=backend)
    return result


def test_domain_kill_restore_success(benchmark):
    results = benchmark.pedantic(
        lambda: {False: _arm(False), True: _arm(True)},
        rounds=1, iterations=1)

    table = Table(["arm", "containers", "objects killed",
                   "restores ok", "success %", "failovers",
                   "replica overhead"],
                  title=f"Domain kill ({KILLED} of {len(DOMAINS)}): "
                        f"restore success, {CLIENTS} clients x "
                        f"{SESSIONS} sessions")
    for replicated, r in results.items():
        table.add_row(["R>=2" if replicated else "R=1",
                       r["primaries"], r["killed"],
                       f"{r['ok']}/{r['attempted']}",
                       f"{100 * r['success']:.1f}",
                       r["failovers"],
                       format_bytes(r["replica_bytes"])])
    emit(table.render())

    baseline, tiered = results[False], results[True]
    # The kill actually destroyed data in both arms.
    assert baseline["killed"] >= 1 and tiered["killed"] >= 1
    # Without replication a dead domain means failed restores...
    assert baseline["success"] < 1.0
    # ...with R>=2 every restore succeeds via replica failover
    # (acceptance bar: >= 99%).
    assert tiered["success"] >= 0.99
    assert tiered["failovers"] >= 1
    assert tiered["success"] > baseline["success"]


def test_scrub_repair_gc_converge_after_kill(benchmark):
    def run():
        backend = _run_fleet().backend
        replicate_cloud(backend, policy=DurabilityPolicy(base_replicas=2),
                        domains=DOMAINS)
        assert scrub_cloud(backend).clean
        kill_domain(backend, KILLED, DOMAINS)

        degraded = scrub_cloud(backend)
        repair = repair_cloud(backend)
        healed = scrub_cloud(backend)
        gc = collect_garbage(backend, retain_sessions=[])
        final = scrub_cloud(backend)
        return dict(backend=backend, degraded=degraded, repair=repair,
                    healed=healed, gc=gc, final=final)

    r = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(["stage", "outcome"],
                  title="Recovery loop after the domain kill")
    table.add_row(["scrub (degraded)", r["degraded"].summary_line()])
    table.add_row(["repair", f"{r['repair'].repaired} copies rebuilt, "
                   f"{format_bytes(r['repair'].bytes_copied)} "
                   f"repair traffic"])
    table.add_row(["scrub (healed)", r["healed"].summary_line()])
    table.add_row(["gc", f"{r['gc'].deleted_replicas} replicas swept, "
                   f"{r['gc'].plan_pruned} plan entries pruned"])
    table.add_row(["scrub (final)", r["final"].summary_line()])
    emit(table.render())

    # The kill degraded durability without losing data...
    assert not r["degraded"].clean and not r["degraded"].problems
    assert all(f.repairable for f in r["degraded"].findings)
    # ...repair rebuilt every copy from survivors...
    assert r["repair"].ok and r["repair"].repaired >= 1
    assert r["repair"].bytes_copied > 0
    assert r["healed"].clean
    # ...and GC swept nothing live: zero orphaned replicas, replicas
    # of live containers (tenant-marked) all kept, store still clean.
    assert r["gc"].deleted_containers == 0
    assert r["gc"].deleted_replicas == 0
    plan = ReplicationPlan.load(r["backend"])
    for key in r["backend"].list(naming.REPLICA_PREFIX):
        _domain, cid = naming.parse_replica_key(key)
        assert plan is not None and cid in plan
        assert r["backend"].exists(naming.container_key(cid))
    assert r["final"].clean
