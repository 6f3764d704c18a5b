"""Fleet-scale directory bench — the million-client tiers under load.

Drives the global dedup directory with **100+ simulated clients**
(24 in smoke mode, see ``BENCH_SMOKE``) probing and
publishing through per-``(client, app)`` :class:`~repro.fleet.FleetIndex`
fronts in waves, the same epoch-barrier protocol the full
:class:`~repro.fleet.FleetService` uses — but without spinning up 100
complete backup engines, so the bench isolates *directory* cost.

Two arms over byte-identical workloads:

* **baseline** — the PR-3 directory shape: disk-backed shards
  (``bloom_fp_rate=None`` models the raw index: every descent pays
  binary-search disk probes) behind the cache front alone;
* **scaled** — the same disk backing and cache behind the scale tiers:
  per-shard Bloom front absorbing cold misses, and consistent-hash
  splits rebalancing hot shards at epoch barriers.

Both arms are *exact* dedup (the filter has no false negatives over
the committed set), so the dedup ratio must match to the byte while
the backing ``disk_probes`` drop by at least 5x — that is the
ISSUE's acceptance bar, priced in server seek seconds via the paper's
disk model.  Rebalance determinism is asserted the hard way: the
scaled arm runs twice with different thread-pool sizes and the
committed content of every shard must be identical.

Set ``BENCH_SMOKE=1`` for the down-scaled CI configuration.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

from conftest import SMOKE, emit

from repro.fleet import FleetIndex, GlobalDedupDirectory
from repro.index import IndexEntry
from repro.index.disk import DiskIndex
from repro.metrics import Table
from repro.obs import Tracer
from repro.simulate.diskmodel import PAPER_DISK

CLIENTS = 24 if SMOKE else 120
WAVES = 4
ROUNDS = 2
APPS = ("doc", "media")
SHARED_PER_APP = 96 if SMOKE else 192     # corpus every client carries
PRIVATE_PER_ROUND = 12 if SMOKE else 24   # cold, never-shared chunks
SPLIT_ENTRIES = 300 if SMOKE else 1500
MEMTABLE = 128 if SMOKE else 256


def _fp(tag: str) -> bytes:
    return hashlib.sha1(tag.encode()).digest()


def _length(fp: bytes) -> int:
    return (fp[0] + 1) * 64  # deterministic per fingerprint


def _stream(rank: int, round_no: int, app: str):
    """One client's chunk stream for one session: the shared corpus
    (cross-client duplicates) then its private tail (cold chunks)."""
    fps = [_fp(f"shared/{app}/{i}") for i in range(SHARED_PER_APP)]
    fps += [_fp(f"private/{app}/{rank}/{round_no}/{i}")
            for i in range(PRIVATE_PER_ROUND)]
    return fps


def _run_arm(directory: GlobalDedupDirectory, max_workers: int):
    """Wave/epoch protocol over ``CLIENTS`` simulated clients."""
    indexes = {(rank, app): FleetIndex(directory, app, rank)
               for rank in range(CLIENTS) for app in APPS}
    seq = {rank: 0 for rank in range(CLIENTS)}

    def session(rank: int, round_no: int) -> None:
        for app in APPS:
            ix = indexes[(rank, app)]
            for fp in _stream(rank, round_no, app):
                if ix.lookup(fp) is None:
                    seq[rank] += 1
                    ix.insert(IndexEntry(
                        fingerprint=fp, container_id=rank,
                        offset=seq[rank], length=_length(fp)))
            ix.flush_publishes()

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        for round_no in range(ROUNDS):
            for wave in range(WAVES):
                members = [r for r in range(CLIENTS) if r % WAVES == wave]
                futures = [pool.submit(session, rank, round_no)
                           for rank in members]
                for future in futures:
                    future.result()
                directory.commit_epoch()

    rows = directory.stats_rows()
    return {
        "entries": len(directory),
        "remote_hits": sum(ix.remote_hits for ix in indexes.values()),
        "adopted_bytes": sum(ix.adopted_bytes for ix in indexes.values()),
        "filter_absorbed": sum(ix.filter_absorbed
                               for ix in indexes.values()),
        "disk_probes": sum(r["disk_probes"] for r in rows),
        "batches": sum(r["batches"] for r in rows),
        "probes": sum(r["probes"] for r in rows),
        "filter_rejects": directory.filter_rejects,
        "rebalances": directory.rebalances,
        "migrated": directory.migrated_entries,
        "committed": {s.name: s.committed_entries()
                      for s in directory.shards()},
        "shards": len(directory.shards()),
    }


def _disk_factory(root):
    def factory(app, bucket):
        # bloom_fp_rate=None models the raw disk index: every descent
        # pays its binary-search probes (the PR-3 cost baseline).
        return DiskIndex(root / f"{app}-{bucket}",
                         memtable_limit=MEMTABLE, bloom_fp_rate=None)
    return factory


def _baseline_directory(root):
    return GlobalDedupDirectory(shards_per_app=2,
                                index_factory=_disk_factory(root),
                                cache_capacity=256)


def _scaled_directory(root, tracer=None):
    return GlobalDedupDirectory(shards_per_app=2,
                                index_factory=_disk_factory(root),
                                cache_capacity=256,
                                filter_capacity=4096,
                                shard_split_entries=SPLIT_ENTRIES,
                                tracer=tracer)


def test_fleet_scale_filter_and_locality_tiers(benchmark, tmp_path):
    tracer = Tracer()

    def run():
        base_dir = _baseline_directory(tmp_path / "base")
        scaled_dir = _scaled_directory(tmp_path / "scaled", tracer=tracer)
        try:
            base = _run_arm(base_dir, max_workers=8)
            scaled = _run_arm(scaled_dir, max_workers=8)
        finally:
            base_dir.close()
            scaled_dir.close()
        return base, scaled

    base, scaled = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(["arm", "shards", "disk probes", "seek s", "batches",
                   "filter rejects", "splits", "entries"],
                  title=f"fleet directory at {CLIENTS} clients")
    for name, arm in (("PR-3 baseline (disk+cache)", base),
                      ("filter+cache+splits", scaled)):
        table.add_row([name, arm["shards"], arm["disk_probes"],
                       PAPER_DISK.random_io_seconds(arm["disk_probes"]),
                       arm["batches"], arm["filter_rejects"],
                       arm["rebalances"], arm["entries"]])
    emit(table.render())

    # A real fleet drove it.
    assert CLIENTS >= (24 if SMOKE else 100)

    # Equal dedup: both arms are exact, so committed entries and
    # cross-client adoption must match to the byte.
    assert scaled["entries"] == base["entries"] > 0
    assert scaled["remote_hits"] == base["remote_hits"] > 0
    assert scaled["adopted_bytes"] == base["adopted_bytes"] > 0

    # ISSUE acceptance: the filter front cuts the backing's disk
    # probes by at least 5x at that equal dedup ratio.
    assert base["disk_probes"] > 0
    assert scaled["disk_probes"] * 5 <= base["disk_probes"]

    # The tiers actually engaged: cold misses died in the filter (and
    # clients kept them out of their memos), splits rebalanced load.
    assert scaled["filter_rejects"] > 0
    assert scaled["filter_absorbed"] > 0
    assert scaled["rebalances"] > 0
    assert scaled["migrated"] > 0
    assert scaled["shards"] > len(APPS) * 2

    # Observability: the rebalance span and the filter counter flow
    # through the tracer.
    assert any(s.name == "fleet.rebalance" for s in tracer.spans())
    counters = tracer.metrics.snapshot()["counters"]
    assert counters.get("fleet_filter_rejects_total", 0) > 0


def test_fleet_scale_rebalance_determinism(benchmark, tmp_path):
    """Splits migrate entries at epoch barriers; committed content must
    be byte-identical no matter the thread-pool size."""

    def run():
        results = []
        for workers in (1, 8):
            directory = _scaled_directory(tmp_path / f"w{workers}")
            try:
                results.append(_run_arm(directory, max_workers=workers))
            finally:
                directory.close()
        return results

    serial, threaded = benchmark.pedantic(run, rounds=1, iterations=1)

    assert serial["rebalances"] == threaded["rebalances"] > 0
    assert serial["committed"].keys() == threaded["committed"].keys()
    assert serial["committed"] == threaded["committed"]
    assert serial["entries"] == threaded["entries"]
    assert serial["disk_probes"] == threaded["disk_probes"]
    emit(f"rebalance determinism held over {serial['shards']} shards, "
         f"{serial['rebalances']} splits, {serial['migrated']} entries "
         f"migrated")
