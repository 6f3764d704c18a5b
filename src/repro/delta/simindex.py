"""Bounded per-application similarity index: super-feature -> base chunk.

The delta stage needs an answer to "have I recently stored a chunk that
*resembles* this one?".  Mirroring the application-aware exact index
(:mod:`repro.index.appaware`), resemblance state is partitioned per
application label — Observation 2 (cross-application duplicate data is
negligible) applies to near-duplicates just as it does to exact ones, so
each namespace stays small and the parallel per-app dedup workers touch
disjoint namespaces without locking.

Each namespace maps super-features to base-chunk fingerprints with LRU
eviction (a bounded memory footprint is non-negotiable on a PC client;
stale resemblance only costs a missed delta, never correctness).
Probes return the candidate base with the most super-feature votes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.delta.sketch import Sketch
from repro.errors import DeltaError

__all__ = ["SimilarityIndex"]


class SimilarityIndex:
    """A family of bounded per-application super-feature maps."""

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise DeltaError("similarity index capacity must be >= 1")
        #: Max super-feature slots kept per namespace.
        self.capacity = capacity
        self._maps: Dict[str, "OrderedDict[bytes, bytes]"] = {}
        self._create_lock = threading.Lock()

    def _namespace(self, namespace: str) -> "OrderedDict[bytes, bytes]":
        ns = self._maps.get(namespace)
        if ns is None:
            with self._create_lock:
                ns = self._maps.get(namespace)
                if ns is None:
                    ns = self._maps[namespace] = OrderedDict()
        return ns

    # ------------------------------------------------------------------
    def probe(self, namespace: str, sketch: Sketch) -> Optional[bytes]:
        """Most-resembling base fingerprint for ``sketch``, or ``None``.

        Candidates are ranked by super-feature votes; ties break toward
        the super-feature seen first in the sketch (deterministic).  A
        hit refreshes the matched slots' LRU position — an actively
        useful base stays resident.
        """
        ns = self._namespace(namespace)
        votes: Dict[bytes, int] = {}
        for sf in sketch.super_features:
            fp = ns.get(sf)
            if fp is not None:
                votes[fp] = votes.get(fp, 0) + 1
        if not votes:
            return None
        best = max(votes, key=votes.__getitem__)
        for sf in sketch.super_features:
            if ns.get(sf) == best:
                ns.move_to_end(sf)
        return best

    def insert(self, namespace: str, sketch: Sketch,
               fingerprint: bytes) -> None:
        """Register ``fingerprint`` as the base behind every
        super-feature of ``sketch`` (last-writer-wins per slot)."""
        ns = self._namespace(namespace)
        for sf in sketch.super_features:
            if sf in ns:
                ns.move_to_end(sf)
            ns[sf] = fingerprint
        while len(ns) > self.capacity:
            ns.popitem(last=False)

    def discard(self, namespace: str, fingerprint: bytes) -> int:
        """Drop every slot pointing at ``fingerprint``; returns count.

        Used when a base leaves the client's payload cache — a probe
        must never return a base whose bytes are no longer available.
        """
        ns = self._maps.get(namespace)
        if ns is None:
            return 0
        dead = [sf for sf, fp in ns.items() if fp == fingerprint]
        for sf in dead:
            del ns[sf]
        return len(dead)
