"""Cloud backend interface with request/byte accounting.

Every backend counts uploads, downloads and request totals — the raw
inputs to the Amazon-S3 cost model (``CC = DS/DR·(SP+TP) + OC·OP``) and
to the WAN transfer-time model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ObjectNotFound

__all__ = ["CloudStats", "CloudBackend"]


@dataclass
class CloudStats:
    """Request and byte counters for one backend instance."""

    put_requests: int = 0
    get_requests: int = 0
    delete_requests: int = 0
    list_requests: int = 0
    bytes_uploaded: int = 0
    bytes_downloaded: int = 0


class CloudBackend(abc.ABC):
    """Abstract object store (S3-like flat key → blob namespace)."""

    def __init__(self) -> None:
        self.stats = CloudStats()

    # -- primitive operations (implemented by subclasses) --------------
    @abc.abstractmethod
    def _put(self, key: str, data: bytes) -> None: ...

    @abc.abstractmethod
    def _get(self, key: str) -> Optional[bytes]: ...

    @abc.abstractmethod
    def _delete(self, key: str) -> bool: ...

    @abc.abstractmethod
    def _list(self, prefix: str) -> Iterator[str]: ...

    # -- public, accounted API ------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (overwrites)."""
        self.stats.put_requests += 1
        self.stats.bytes_uploaded += len(data)
        self._put(key, data)

    def get(self, key: str) -> bytes:
        """Fetch the blob at ``key``; raises :class:`ObjectNotFound`."""
        self.stats.get_requests += 1
        data = self._get(key)
        if data is None:
            raise ObjectNotFound(key)
        self.stats.bytes_downloaded += len(data)
        return data

    def exists(self, key: str) -> bool:
        """HEAD-style existence check (accounted as a get request)."""
        self.stats.get_requests += 1
        return self._get(key) is not None

    def delete(self, key: str) -> bool:
        """Delete ``key``; returns whether it existed."""
        self.stats.delete_requests += 1
        return self._delete(key)

    def list(self, prefix: str = "") -> list[str]:
        """Sorted keys under ``prefix``."""
        self.stats.list_requests += 1
        return sorted(self._list(prefix))

    def stored_bytes(self) -> int:
        """Total bytes currently stored (walks all objects)."""
        return sum(len(self._get(k) or b"") for k in self._list(""))
