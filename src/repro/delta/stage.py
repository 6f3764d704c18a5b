"""The delta stage: what happens to a chunk the exact index missed.

One :class:`DeltaStage` holds all similarity state of one client — the
bounded similarity index, the resident base payloads and the refs of
chunks already stored as deltas — and makes the one decision the stage
exists for: reuse / store as a delta / store in full.  The backup
engine drives it with callbacks that store bytes (the estimator,
:mod:`repro.analysis.estimate`, is that engine over a store that keeps
only sizes).

Everything here is a *client-local hint*: losing it costs dedup
opportunity, never correctness.  Delta targets deliberately never enter
the exact chunk index — a synced ``IndexEntry`` cannot carry a base
chain, so a later exact hit would emit a plain ref pointing at
delta-blob bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.chunking import CDC_FAMILY
from repro.delta.encode import encode_if_worthwhile
from repro.delta.simindex import SimilarityIndex
from repro.delta.sketch import Sketch, compute_sketch
from repro.obs.tracer import NOOP_TRACER

__all__ = ["DeltaStage", "DELTA_CHUNKERS", "MIN_CHUNK", "BASE_CACHE",
           "MAX_CHAIN"]

#: Chunking methods whose output the stage may target.  WFC means
#: compressed content (application-awareness: re-deltaing compressed
#: media buys nothing), so only CDC-family and SC chunks are sketched.
DELTA_CHUNKERS = CDC_FAMILY + ("sc",)

#: Chunks smaller than this skip similarity detection (sketch + probe
#: overhead cannot pay off on near-empty chunks).
MIN_CHUNK = 2048

#: Recent base payloads kept in memory per namespace — delta encoding
#: needs the base bytes, and a source deduplicator must never
#: re-download them mid-backup.
BASE_CACHE = 256

#: Max delta hops from any chunk back to a full base extent.  Deeper
#: chains save more bytes but cost chained decodes on restore.
MAX_CHAIN = 3


class _Base:
    """A resident delta base: its plaintext, its ref (full or itself a
    delta) and its delta-chain depth."""

    __slots__ = ("payload", "ref", "depth")

    def __init__(self, payload: bytes, ref, depth: int) -> None:
        self.payload = payload
        self.ref = ref
        self.depth = depth


class DeltaStage:
    """Similarity detection + delta encoding for unique chunks.

    :data:`MAX_CHAIN` caps the delta hops from any chunk back to a full
    extent.  Refs are opaque to the stage: it keeps whatever the store
    callbacks return and hands it back (as a delta's base ref, or for a
    repeat of a delta-stored chunk).
    """

    def __init__(self, tracer=NOOP_TRACER) -> None:
        self.tracer = tracer
        self._sim = SimilarityIndex()
        #: namespace -> OrderedDict[fingerprint -> _Base] (LRU).
        self._bases: Dict[str, "OrderedDict[bytes, _Base]"] = {}
        #: namespace -> {target fingerprint -> delta ref}.
        self._refs: Dict[str, Dict[bytes, object]] = {}

    def place(self, namespace: str, fp: bytes, payload: bytes,
              chunker: str, app_label: str, stats,
              store_full: Callable[[], object],
              store_delta: Callable[[bytes, object], object]):
        """Place a chunk the exact index has never seen; returns its ref.

        Repeat of a known delta target → its ref again, no bytes move;
        resemblance hit with an affordable delta → ``store_delta(blob,
        base_ref)``; otherwise ``store_full()``, which also admits the
        chunk as a future delta base.  Work and outcomes are charged to
        ``stats`` (a :class:`~repro.core.stats.SessionStats`).
        """
        prior = self._refs.get(namespace, {}).get(fp)
        if prior is not None:
            # The exact index missed by design (see module docstring).
            stats.ops.index_hits += 1
            return prior
        if chunker not in DELTA_CHUNKERS or len(payload) < MIN_CHUNK:
            return store_full()
        stats.ops.sketch_bytes += len(payload)
        with self.tracer.span("delta.sketch", app=app_label,
                              bytes=len(payload)):
            sketch = compute_sketch(payload)
        ref = self._try_delta(namespace, fp, payload, sketch, app_label,
                              stats, store_delta)
        if ref is None:
            ref = store_full()
            self._admit_base(namespace, fp, payload, ref, 0, sketch)
        return ref

    def _try_delta(self, namespace: str, fp: bytes, payload: bytes,
                   sketch: Sketch, app_label: str, stats,
                   store_delta) -> Optional[object]:
        """Store the chunk as a delta on a usable similarity hit;
        ``None`` when it must be stored in full (no base, chain too
        deep, or delta too large)."""
        base_fp = self._sim.probe(namespace, sketch)
        if base_fp is None:
            return None
        base = self._bases.get(namespace, {}).get(base_fp)
        if base is None or base.depth >= MAX_CHAIN:
            return None
        stats.ops.delta_encode_bytes += len(payload)
        tracer = self.tracer
        with tracer.span("delta.encode", app=app_label,
                         bytes=len(payload), base_depth=base.depth):
            blob = encode_if_worthwhile(base.payload, payload)
        if blob is None:
            stats.delta_rejected += 1
            return None
        ref = store_delta(blob, base.ref)
        saved = len(payload) - len(blob)
        stats.bytes_unique += len(blob)
        stats.chunks_delta += 1
        stats.delta_bytes_stored += len(blob)
        stats.delta_bytes_saved += saved
        if tracer.enabled:
            tracer.metrics.counter("delta_chunks_total").inc()
            tracer.metrics.counter("delta_bytes_saved_total").inc(saved)
        self._refs.setdefault(namespace, {})[fp] = ref
        depth = base.depth + 1
        if depth < MAX_CHAIN:
            self._admit_base(namespace, fp, payload, ref, depth, sketch)
        return ref

    def _admit_base(self, namespace: str, fp: bytes, payload: bytes,
                    ref, depth: int, sketch: Sketch) -> None:
        """Admit a stored chunk as a candidate base for future deltas
        (LRU-bounded; evicted bases leave the similarity index too)."""
        bases = self._bases.setdefault(namespace, OrderedDict())
        if fp in bases:
            bases.move_to_end(fp)
        bases[fp] = _Base(payload, ref, depth)
        while len(bases) > BASE_CACHE:
            old_fp, _ = bases.popitem(last=False)
            self._sim.discard(namespace, old_fp)
        self._sim.insert(namespace, sketch, fp)
