"""Per-tenant namespaced view of one shared cloud backend.

A fleet of backup clients hitting one storage account needs two things
from the key space: *isolation* for client-private state (manifests,
journals, the GC epoch — a client must never read or clobber another
client's), and *sharing* for the container pool (cross-client dedup only
pays off when a chunk one client uploaded is addressable by every
other).  :class:`NamespacedBackend` provides both through the one key
layout in :mod:`repro.core.naming`: keys under a shared prefix pass
through verbatim, every other key is transparently prefixed with
``clients/<namespace>/``.

The wrapper keeps its own :class:`~repro.cloud.base.CloudStats` (what
the cost model prices per client) while the wrapped backend accumulates
fleet-wide totals.  Inner-backend access is serialised on ``lock``; one
lock shared by every tenant view makes a plain dict- or directory-backed
backend safe under concurrent multi-client load.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from repro.cloud.base import CloudBackend
from repro.core import naming
from repro.errors import ObjectNotFound

__all__ = ["NamespacedBackend"]


class NamespacedBackend(CloudBackend):
    """A tenant's view of a shared backend (private keys prefixed;
    :data:`repro.core.naming.SHARED_PREFIXES` shared)."""

    def __init__(self, inner: CloudBackend, namespace: str,
                 lock: Optional[threading.Lock] = None) -> None:
        super().__init__()
        if not namespace or "/" in namespace:
            raise ValueError(f"bad namespace {namespace!r}")
        self.inner = inner
        self.namespace = namespace
        self.lock = lock if lock is not None else threading.Lock()

    # ------------------------------------------------------------------
    def _map(self, key: str) -> str:
        return naming.tenant_key(self.namespace, key)

    def _raw_prefixes(self, prefix: str) -> set:
        """Inner prefixes whose keys the view lists under ``prefix``:
        the one ``prefix`` maps to, plus every shared subtree inside
        it."""
        return {self._map(prefix)} | {
            shared for shared in naming.SHARED_PREFIXES
            if shared.startswith(prefix)}

    # -- primitive operations (delegate through the inner *public* API
    # so fleet-wide totals accumulate on the inner backend's stats) ----
    def _put(self, key: str, data: bytes) -> None:
        with self.lock:
            self.inner.put(self._map(key), data)

    def _get(self, key: str) -> Optional[bytes]:
        with self.lock:
            try:
                return self.inner.get(self._map(key))
            except ObjectNotFound:
                return None

    def _delete(self, key: str) -> bool:
        with self.lock:
            return self.inner.delete(self._map(key))

    def _list(self, prefix: str) -> Iterator[str]:
        unmap = naming.split_tenant_key
        with self.lock:
            return iter({unmap(key)[1]
                         for raw in self._raw_prefixes(prefix)
                         for key in self.inner.list(raw)})

    def stored_bytes(self) -> int:
        """Bytes visible in this namespace (shared pool + private keys)."""
        with self.lock:
            return sum(len(self.inner._get(key) or b"")
                       for raw in self._raw_prefixes("")
                       for key in self.inner._list(raw))
