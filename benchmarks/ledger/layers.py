"""The traced run: in-situ timing wrappers and per-layer drivers.

Everything here measures from the benchmark's own files, around the
calls into each layer of ``src/repro``; nothing in the program changes.

* *In situ*: :class:`TimedSource` times every ``SourceFile.reader``,
  :class:`TimedBackend` times every backend operation, and the cycle's
  phase spans time ``backup``/``close``/``restore``/``collect_garbage``.
* *Layer drivers*: :func:`drive_layers` replays session 0's files
  through the public functions in engine order — classify → chunk →
  hash → index → container → manifest — taking chunker and hash from the
  workload's ``SchemeConfig``, never from a copy of the policy table.

``core.backup.full_glue_s`` is the traced ``full`` wall minus the
in-situ read and put time minus the drivers' self-times, so layers plus
glue sum to the window by construction.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from typing import Dict, Iterator, List

from corpus import Corpus, Workload
from cycle import CycleResult, SpanLog
from repro.chunking import CDC_FAMILY
from repro.classify.filetype import Category, classify_path
from repro.container.format import ContainerReader
from repro.container.manager import ContainerManager
from repro.core import DirectorySource, aa_dedupe_config
from repro.core.recipe import ChunkRef, FileEntry, Manifest
from repro.core.source import SourceFile
from repro.hashing.base import get_hash
from repro.index.appaware import AppAwareIndex
from repro.index.base import IndexEntry
from repro.util.units import MB

_HASHES = ("rabin12", "md5", "sha1")


class TimedSource:
    """A backup source whose every file read is one ``core.source.read``
    span."""

    def __init__(self, inner, spans: SpanLog) -> None:
        self._inner = inner
        self._spans = spans

    def __iter__(self) -> Iterator[SourceFile]:
        for sf in self._inner:
            yield replace(sf, reader=self._timed(sf))

    def _timed(self, sf: SourceFile):
        def read() -> bytes:
            with self._spans.span("core.source.read", sf.size):
                return sf.reader()
        return read


class TimedBackend:
    """The real backend's public operations, one span each.

    Duck-typed like ``SimulatedCloud``: the engine only calls these
    five methods and reads ``stats``/``clock``.  Accounting stays with
    the inner backend (``stats`` is shared), so request and byte counts
    are the same as in an untraced run.
    """

    def __init__(self, inner, spans: SpanLog) -> None:
        self._inner = inner
        self._spans = spans
        self.stats = inner.stats
        self.clock = inner.clock

    def put(self, key: str, data: bytes) -> None:
        with self._spans.span("cloud.put", len(data)):
            self._inner.put(key, data)

    def get(self, key: str) -> bytes:
        with self._spans.span("cloud.get") as row:
            data = self._inner.get(key)
            row["bytes"] = len(data)
            return data

    def exists(self, key: str) -> bool:
        with self._spans.span("cloud.exists"):
            return self._inner.exists(key)

    def delete(self, key: str) -> bool:
        with self._spans.span("cloud.delete"):
            return self._inner.delete(key)

    def list(self, prefix: str = "") -> List[str]:
        with self._spans.span("cloud.list"):
            return self._inner.list(prefix)


def _rate(nbytes: float, seconds: float) -> float:
    return nbytes / MB / seconds if seconds > 0 else 0.0


def _chunker_for(cache: Dict[tuple, object], policy):
    """One chunker per distinct (name, parameters), as the engine keeps."""
    key = (policy.chunker, tuple(sorted(policy.chunker_params.items())))
    if key not in cache:
        cache[key] = policy.make_chunker()
    return cache[key]


def drive_layers(workload: Workload, corpus: Corpus,
                 spans: SpanLog) -> Dict[str, float]:
    """Replay session 0 through each layer's public API, in engine
    order, timing every layer on its own."""
    cfg = aa_dedupe_config(**workload.config)
    spans.phase = "drivers"
    seconds: Dict[str, float] = {}
    nbytes: Dict[str, int] = {}
    calls: Dict[str, int] = {}

    def charge(name: str, start: float, end: float, size: int = 0,
               count: int = 1, parent=None) -> None:
        seconds[name] = seconds.get(name, 0.0) + end - start
        nbytes[name] = nbytes.get(name, 0) + size
        calls[name] = calls.get(name, 0) + count
        spans.add(name, start, end, parent, size)

    blobs: List[bytes] = []
    containers = ContainerManager(
        upload=lambda _cid, blob: blobs.append(blob),
        container_size=cfg.container_size,
        pad_containers=cfg.pad_containers)
    index = AppAwareIndex()
    manifest = Manifest(0, cfg.name)
    chunkers: Dict[tuple, object] = {}
    clock = time.perf_counter

    for sf in DirectorySource(corpus.trees[0]):
        data = sf.read()
        t0 = clock()
        app = classify_path(sf.path)
        charge("classify", t0, clock())
        entry = FileEntry(path=sf.path, size=sf.size, mtime_ns=sf.mtime_ns,
                          app=app.label, category=app.category.value)
        if sf.size < cfg.tiny_file_threshold:
            # Tiny-file filter: the whole file is one SHA-1 extent.
            hash_name, stream = "sha1", "tiny"
            pieces = [data] if data else []
            entry.tiny = True
        else:
            policy = cfg.policy_for_app(app)
            hash_name = policy.hash_name
            stream = cfg.index_namespace(app.label, policy)
            chunker = _chunker_for(chunkers, policy)
            t0 = clock()
            pieces = [c.data for c in chunker.chunk(data)]
            charge(f"chunking.{policy.chunker}", t0, clock(), len(data),
                   len(pieces))
        hasher = get_hash(hash_name)
        t0 = clock()
        fps = [hasher.hash(p) for p in pieces]
        charge(f"hashing.{hash_name}", t0, clock(), len(data), len(pieces))

        # Placement, per chunk as the engine does it: probe, then either
        # bump the hit or append to the container and insert.
        with spans.span("place", len(data)) as place:
            idx = box = 0.0
            lookups = inserts = adds = 0
            for fp, piece in zip(fps, pieces):
                existing = None
                if not entry.tiny:
                    t0 = clock()
                    existing = index.lookup(stream, fp)
                    idx += clock() - t0
                    lookups += 1
                if existing is None:
                    t0 = clock()
                    loc = containers.add(fp, piece, stream=stream,
                                         tiny_file=entry.tiny)
                    box += clock() - t0
                    adds += 1
                    existing = IndexEntry(fp, loc.container_id, loc.offset,
                                          loc.length)
                else:
                    existing = existing.bumped()
                if not entry.tiny:
                    t0 = clock()
                    index.insert(stream, existing)
                    idx += clock() - t0
                    inserts += 1
                entry.refs.append(ChunkRef(
                    fingerprint=fp, length=existing.length,
                    container_id=existing.container_id,
                    offset=existing.offset))
        start = place["start"]
        charge("index", start, start + idx, count=lookups + inserts,
               parent=place["id"])
        charge("container", start + idx, start + idx + box, len(data),
               adds, parent=place["id"])
        manifest.add(entry)

    t0 = clock()
    containers.flush()
    charge("container", t0, clock())
    t0 = clock()
    blob = manifest.to_json().encode("utf-8")
    charge("core.recipe.encode", t0, clock(), len(blob))
    t0 = clock()
    Manifest.from_json(blob)
    charge("core.recipe.parse", t0, clock(), len(blob))
    t0 = clock()
    for sealed in blobs:
        ContainerReader(sealed)
    charge("container.parse", t0, clock(), sum(map(len, blobs)))

    # Probe and insert cost apart, over the index the replay built.
    probes = [(app, e.fingerprint) for app, e in index.entries()]
    t0 = clock()
    for app, fp in probes:
        index.lookup(app, fp)
    lookup_s = clock() - t0
    fresh = AppAwareIndex()
    entries = list(index.entries())
    t0 = clock()
    for app, e in entries:
        fresh.insert(app, e)
    insert_s = clock() - t0
    spans.phase = ""

    def layer(table: Dict[str, float], prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    refs = sum(len(e.refs) for e in manifest)
    out = {
        "classify.self_s": seconds["classify"],
        "classify.files_per_s": calls["classify"] / seconds["classify"],
        "chunking.self_s": layer(seconds, "chunking."),
        "chunking.chunks": float(layer(calls, "chunking.")),
        "hashing.self_s": layer(seconds, "hashing."),
        "hashing.calls": float(layer(calls, "hashing.")),
        "index.self_s": seconds["index"],
        "index.lookup_us": lookup_s / max(1, len(probes)) * 1e6,
        "index.insert_us": insert_s / max(1, len(entries)) * 1e6,
        "container.self_s": seconds["container"],
        "container.pack_MBps": _rate(containers.stats.bytes_uploaded,
                                     seconds["container"]),
        "container.parse_MBps": _rate(nbytes["container.parse"],
                                      seconds["container.parse"]),
        "container.fill_ratio": (containers.stats.bytes_payload
                                 / containers.stats.bytes_uploaded),
        "container.sealed": float(containers.stats.sealed),
        "core.recipe.self_s": seconds["core.recipe.encode"],
        "core.recipe.encode_MBps": _rate(nbytes["core.recipe.encode"],
                                         seconds["core.recipe.encode"]),
        "core.recipe.parse_MBps": _rate(nbytes["core.recipe.parse"],
                                        seconds["core.recipe.parse"]),
        "core.recipe.bytes_per_chunk": len(blob) / refs,
    }
    for name in ("wfc", "sc"):
        key = f"chunking.{name}"
        out[f"{key}.MBps"] = _rate(nbytes.get(key, 0), seconds.get(key, 0.0))
    for name in _HASHES:
        key = f"hashing.{name}"
        out[f"{key}.MBps"] = _rate(nbytes.get(key, 0), seconds.get(key, 0.0))
    return out


def compare_engines(workload: Workload, corpus: Corpus,
                    spans: SpanLog) -> Dict[str, float]:
    """Throughput, dedup ratio and chunk-size distribution of every
    CDC-family engine over session 0's DYNAMIC files, together, so a
    faster chunker cannot hide a ratio loss."""
    base = aa_dedupe_config(**workload.config)
    files = []
    for sf in DirectorySource(corpus.trees[0]):
        app = classify_path(sf.path)
        if (app.category is Category.DYNAMIC
                and sf.size >= base.tiny_file_threshold):
            files.append((app, sf.read()))
    total = sum(len(data) for _app, data in files)
    out: Dict[str, float] = {}
    spans.phase = "engines"
    for engine in CDC_FAMILY:
        cfg = base.with_chunker(engine)
        key = f"chunking.{engine}"
        out.update({f"{key}.MBps": 0.0, f"{key}.dedup_ratio": 0.0,
                    f"{key}.chunk_bytes_p50": 0.0,
                    f"{key}.chunk_bytes_p95": 0.0})
        if not files:
            continue
        chunkers: Dict[tuple, object] = {}
        seconds = 0.0
        sizes: List[int] = []
        unique: Dict[tuple, int] = {}
        for app, data in files:
            policy = cfg.policy_for_app(app)
            chunker = _chunker_for(chunkers, policy)
            with spans.span(key, len(data)) as row:
                chunks = chunker.chunk(data)
            seconds += row["end"] - row["start"]
            hasher = policy.fingerprinter()
            for chunk in chunks:
                sizes.append(chunk.length)
                unique[(app.label, hasher.hash(chunk.data))] = chunk.length
        cuts = statistics.quantiles(sizes, n=20)
        out[f"{key}.MBps"] = _rate(total, seconds)
        out[f"{key}.dedup_ratio"] = total / sum(unique.values())
        out[f"{key}.chunk_bytes_p50"] = float(statistics.median(sizes))
        out[f"{key}.chunk_bytes_p95"] = float(cuts[18])
    spans.phase = ""
    return out


def in_situ(spans: SpanLog, cycle: CycleResult,
            drivers: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of the wrapper-traced cycle."""
    total, count, size = spans.total, spans.count, spans.nbytes
    walls = cycle.walls
    read_s, put_s, get_s = (total("core.source.read"), total("cloud.put"),
                            total("cloud.get"))
    full_read, full_put = (total("core.source.read", "full"),
                           total("cloud.put", "full"))
    layer_s = sum(drivers[f"{layer}.self_s"] for layer in
                  ("classify", "chunking", "hashing", "index", "container",
                   "core.recipe"))
    glue = walls["full"] - full_read - full_put - layer_s
    incr = cycle.sessions[1:]
    busy: Dict[str, float] = {}
    for stats in cycle.sessions:
        for stage, value in stats.stage_busy_seconds.items():
            busy[stage] = busy.get(stage, 0.0) + value
    lookups = sum(s.ops.index_lookups for s in cycle.sessions)
    fetched = sum(r.containers_fetched for r in cycle.restores)
    out = {
        "core.source.read_s": read_s,
        "core.source.read_MBps": _rate(size("core.source.read"), read_s),
        "index.hit_ratio":
            sum(s.ops.index_hits for s in cycle.sessions) / max(1, lookups),
        "index.entries": float(cycle.index_entries),
        "cloud.put_s": put_s,
        "cloud.put_calls": float(count("cloud.put")),
        "cloud.put_MBps": _rate(size("cloud.put"), put_s),
        "cloud.get_s": get_s,
        "cloud.get_calls": float(count("cloud.get")),
        "cloud.get_MBps": _rate(size("cloud.get"), get_s),
        "cloud.list_s": total("cloud.list"),
        "cloud.delete_calls": float(count("cloud.delete")),
        "core.filecache.replayed_file_share":
            sum(s.files_unchanged for s in incr)
            / sum(s.files_total for s in incr),
        "core.filecache.stale": float(sum(s.statcache_stale for s in incr)),
        "core.backup.full_wall_s": walls["full"],
        "core.backup.full_read_s": full_read,
        "core.backup.full_put_s": full_put,
        "core.backup.full_glue_s": glue,
        "core.backup.full_glue_share": glue / walls["full"],
        "core.backup.incr_wall_s": walls["incr"],
        "core.restore.wall_s": walls["restore"],
        "core.restore.assembly_s":
            walls["restore"] - total("cloud.get", "restore"),
        "core.restore.refetch_ratio": fetched / sum(cycle.restore_distinct),
        "core.gc.wall_s": walls["gc"],
        "core.gc.containers_swept": float(cycle.containers_swept),
        "core.gc.bytes_reclaimed":
            float(cycle.store_before_gc - cycle.store_after_gc),
        "core.gc.live_byte_share":
            cycle.live_extent_bytes / cycle.live_container_bytes,
    }
    for stage in ("read", "chunk", "hash", "commit", "upload"):
        out[f"core.pipeline.{stage}_busy_s"] = busy.get(stage, 0.0)
    return out
