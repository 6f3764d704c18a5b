"""Consistent-hash ring for directory shard routing.

The first-generation :class:`~repro.fleet.directory.GlobalDedupDirectory`
bucketed fingerprints by ``fingerprint[0] % shards_per_app`` — a
single-byte prefix that silently caps a fleet at 256 distinct buckets
(``shards_per_app > 256`` leaves shards permanently empty) and skews
load for non-divisors of 256.  The ring replaces that map with classic
consistent hashing: every shard owns ``VNODES`` pseudo-random points on
a 64-bit circle, a fingerprint routes to the owner of the first point
at or after its own hash, and **adding one shard moves only the arcs
the new shard claims** (~``1/(n+1)`` of the keyspace), which is what
makes split/migrate rebalancing cheap enough to run at epoch barriers.

Everything is derived from BLAKE2b digests of stable strings, so the
assignment is a pure function of the node ids — identical
across processes, platforms and thread interleavings, which the fleet's
determinism guarantee requires.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, List, Tuple

__all__ = ["ConsistentHashRing"]

#: Virtual nodes (ring points) per shard.
VNODES = 128


def _hash64(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Deterministic consistent-hash ring over integer node ids.

    >>> ring = ConsistentHashRing(range(4))
    >>> ring.node_for(b"some-fingerprint") in ring.nodes
    True
    """

    def __init__(self, nodes: Iterable[int]) -> None:
        self._nodes: set = set()
        self._points: List[int] = []
        self._owners: List[int] = []
        for node in nodes:
            self.add_node(node)
        if not self._nodes:
            raise ValueError("ring needs at least one node")

    # ------------------------------------------------------------------
    def _node_points(self, node: int) -> List[int]:
        return [_hash64(f"shard-{node}/{replica}".encode())
                for replica in range(VNODES)]

    def _rebuild(self) -> None:
        pairs: List[Tuple[int, int]] = []
        for node in self._nodes:
            pairs.extend((point, node) for point in self._node_points(node))
        # Sorting by (point, node) resolves the astronomically-unlikely
        # point collision deterministically (lower node id wins).
        pairs.sort()
        self._points = [p for p, _n in pairs]
        self._owners = [n for _p, n in pairs]

    def add_node(self, node: int) -> None:
        """Add a shard to the ring (idempotent)."""
        if node < 0:
            raise ValueError("node ids must be >= 0")
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._rebuild()

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[int, ...]:
        """Current node ids, ascending."""
        return tuple(sorted(self._nodes))

    def node_for(self, key: bytes) -> int:
        """Owner of ``key``: first ring point at or after its hash."""
        point = _hash64(key)
        idx = bisect_right(self._points, point) % len(self._points)
        return self._owners[idx]
