"""Fleet-scale directory bench — one row per directory tier.

Drives the global dedup directory with **100+ simulated clients**
(24 in smoke mode, see ``BENCH_SMOKE``) probing and
publishing through per-``(client, app)`` :class:`~repro.fleet.FleetIndex`
fronts in waves, the same epoch-barrier protocol a fleet's
:class:`~repro.service.BackupService` waves use — but without spinning
up 100 complete backup engines, so the bench isolates *directory* cost.

Every arm replays a byte-identical workload against disk-backed shards
(``bloom_fp_rate=None`` models the raw index: every descent pays
binary-search disk probes) and adds one tier at a time:

* **disk only** — two shards per app, no fronts;
* **+ Bloom** — the per-shard Bloom front absorbing cold misses;
* **+ cache** — the HPDedup-style :class:`~repro.index.LocalityCache`;
* **+ cache + Bloom** — both fronts, the shipped configuration;
* **locality / plain LRU at a small capacity** — the same cache with
  and without its per-stream eviction, where LRU thrashes on the shared
  corpus;
* **static N/app, cache + Bloom** — more shards per app from the
  start, the configuration that replaces shard splitting.

Every arm is *exact* dedup (the filter has no false negatives over the
committed set), so remote hits and adopted bytes must match to the byte
while the disk probes fall.  Cache statistics depend on probe arrival
order, so the table runs every arm serially; a separate test checks
that cache + Bloom commits identical content and pays identical disk
probes at 1 and 8 worker threads.

Set ``BENCH_SMOKE=1`` for the down-scaled CI configuration.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

from conftest import SMOKE, emit

from repro.fleet import FleetIndex, GlobalDedupDirectory
from repro.index import IndexEntry, LocalityCache
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
MEMTABLE = 128 if SMOKE else 256
CACHE = 256
SMALL_CACHE = 32 if SMOKE else 64         # where plain LRU thrashes
FILTER = 4096
STATIC_SHARDS = 3 if SMOKE else 5


class _PlainLRU(LocalityCache):
    """The cache front without per-stream eviction: one stream, LRU."""

    def begin_batch(self, fingerprints, stream=None) -> None:
        super().begin_batch(fingerprints)


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


def _run_arm(directory: GlobalDedupDirectory, max_workers: int = 1):
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
        "remote_hits": sum(t["hits"] for t in directory.traffic.values()),
        "adopted_bytes": sum(t["bytes"]
                             for t in directory.traffic.values()),
        "filter_absorbed": sum(ix.filter_absorbed
                               for ix in indexes.values()),
        "disk_probes": sum(r["disk_probes"] for r in rows),
        "batches": sum(r["batches"] for r in rows),
        "filter_rejects": directory.filter_rejects,
        "max_probes": max(r["probes"] for r in rows),
        "max_disk_probes": max(r["disk_probes"] for r in rows),
        "committed": {s.name: s.committed_entries()
                      for s in directory.shards()},
        "shards": len(rows),
    }


def _directory(root, shards=2, cache=0, filter_capacity=0, front=None,
               tracer=None):
    """Disk-backed shards; ``front(disk)`` wraps each in a custom cache
    built through ``index_factory`` instead of ``cache_capacity``."""
    def factory(app, bucket):
        # bloom_fp_rate=None models the raw disk index: every descent
        # pays its binary-search probes.
        disk = DiskIndex(root / f"{app}-{bucket}", memtable_limit=MEMTABLE,
                         bloom_fp_rate=None)
        return disk if front is None else front(disk)
    return GlobalDedupDirectory(shards_per_app=shards, index_factory=factory,
                                cache_capacity=cache,
                                filter_capacity=filter_capacity,
                                tracer=tracer)


#: (row label, arm key, directory keyword arguments).
ARMS = [
    ("2/app, disk only", "disk", {}),
    ("2/app, + Bloom", "bloom", {"filter_capacity": FILTER}),
    ("2/app, + cache", "cache", {"cache": CACHE}),
    ("2/app, + cache + Bloom", "cache_bloom",
     {"cache": CACHE, "filter_capacity": FILTER}),
    (f"2/app, locality cache {SMALL_CACHE}", "locality_small",
     {"cache": SMALL_CACHE}),
    (f"2/app, plain LRU {SMALL_CACHE}", "lru_small",
     {"front": lambda disk: _PlainLRU(disk, SMALL_CACHE)}),
    (f"{STATIC_SHARDS}/app static, + cache + Bloom", "static",
     {"shards": STATIC_SHARDS, "cache": CACHE, "filter_capacity": FILTER}),
]


def test_fleet_scale_tier_ablation(benchmark, tmp_path):
    tracer = Tracer()

    def run():
        results = {}
        for _label, key, kwargs in ARMS:
            traced = tracer if key == "cache_bloom" else None
            directory = _directory(tmp_path / key, tracer=traced, **kwargs)
            try:
                results[key] = _run_arm(directory)
            finally:
                directory.close()
        return results

    arms = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(["arm", "disk probes", "seek s", "batches",
                   "remote hits", "entries", "shards",
                   "max probes/shard", "max disk probes/shard"],
                  title=f"fleet directory tiers at {CLIENTS} clients "
                        f"(serial)")
    for label, key, _kwargs in ARMS:
        arm = arms[key]
        table.add_row([label, arm["disk_probes"],
                       PAPER_DISK.random_io_seconds(arm["disk_probes"]),
                       arm["batches"], arm["remote_hits"], arm["entries"],
                       arm["shards"], arm["max_probes"],
                       arm["max_disk_probes"]])
    emit(table.render())

    # A real fleet drove it.
    assert CLIENTS >= (24 if SMOKE else 100)

    # Equal dedup: every arm is exact, so committed entries and
    # cross-client adoption match to the byte.
    disk = arms["disk"]
    assert disk["remote_hits"] > 0 and disk["adopted_bytes"] > 0
    for key, arm in arms.items():
        assert arm["entries"] == disk["entries"], key
        assert arm["remote_hits"] == disk["remote_hits"], key
        assert arm["adopted_bytes"] == disk["adopted_bytes"], key

    # Each front pays on its own, and together the Bloom front cuts
    # the cache arm's disk probes by at least 5x.
    assert arms["bloom"]["disk_probes"] < disk["disk_probes"]
    assert arms["cache"]["disk_probes"] < disk["disk_probes"]
    assert arms["cache_bloom"]["disk_probes"] * 5 \
        <= arms["cache"]["disk_probes"]

    # Per-stream eviction is what keeps a small cache useful: a plain
    # LRU thrashes on the shared corpus.
    assert arms["locality_small"]["disk_probes"] \
        < arms["lru_small"]["disk_probes"]

    # More static shards spread the load a split would have.
    static, shipped = arms["static"], arms["cache_bloom"]
    assert static["shards"] == len(APPS) * STATIC_SHARDS
    assert static["max_probes"] < shipped["max_probes"]
    assert static["disk_probes"] <= shipped["disk_probes"]

    # The filter engaged (and clients kept its misses out of their
    # memos), and its counter flows through the tracer.
    assert shipped["filter_rejects"] > 0
    assert shipped["filter_absorbed"] > 0
    counters = tracer.metrics.snapshot()["counters"]
    assert counters.get("fleet_filter_rejects_total", 0) > 0


def test_fleet_scale_determinism(benchmark, tmp_path):
    """Cache + Bloom commits identical content and pays identical disk
    probes no matter the thread-pool size."""

    def run():
        results = []
        for workers in (1, 8):
            directory = _directory(tmp_path / f"w{workers}", cache=CACHE,
                                   filter_capacity=FILTER)
            try:
                results.append(_run_arm(directory, max_workers=workers))
            finally:
                directory.close()
        return results

    serial, threaded = benchmark.pedantic(run, rounds=1, iterations=1)

    assert serial["committed"].keys() == threaded["committed"].keys()
    assert serial["committed"] == threaded["committed"]
    assert serial["entries"] == threaded["entries"]
    assert serial["remote_hits"] == threaded["remote_hits"]
    assert serial["disk_probes"] == threaded["disk_probes"]
    emit(f"determinism held over {serial['shards']} shards, "
         f"{serial['entries']} entries, {serial['disk_probes']} disk "
         f"probes")
