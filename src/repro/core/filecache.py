"""The unchanged-file rules (the *stat cache*) and the GC epoch.

AA-Dedupe's premise is repeated backups of the same PC dataset, where
the overwhelming majority of files are byte-identical between sessions.
Re-reading, re-chunking and re-hashing them every session is the
dominant client CPU cost.  The stat cache removes it without a cache of
its own: the client's previous manifest already holds, per path, the
``(size, mtime_ns)`` stat pair and the committed recipe
(:class:`~repro.core.recipe.FileEntry`).  A file whose pair matches
replays that :class:`ChunkRef` chain straight into the new manifest —
no ``read()``, no chunking, no hashing — while the engine still feeds
the dedup accounting.  Jungle Disk's file-incremental change detection
is the same replay.

Safety rules (see docs/STATCACHE.md):

* a pair matches only when **both** size and ``mtime_ns`` are equal;
  ``mtime_ns == 0`` means "unknown" and never matches
  (:func:`unchanged`) — sources without modification stamps always take
  the full pipeline;
* a dedup scheme revalidates replayed refs against the live index
  before use (:func:`revalidate`), and a stale hit falls back to the
  full pipeline;
* the previous manifest is only ever a committed session's, and the
  client drops it whenever the cloud's **GC epoch**
  (:data:`repro.core.naming.STATCACHE_EPOCH_KEY`) moved or cannot be
  read; a ``repro gc`` sweep that deletes data bumps the epoch via
  :func:`invalidate_statcache`, so no replayed ref can outlive a
  collection that may have removed its extents.

Nothing is persisted beyond the manifest itself: a client's first
session open takes the newest manifest as its previous one
(:meth:`~repro.core.backup.BackupClient._open`).  Replay is
a pure performance hint: losing the previous manifest (crash, epoch
bump) costs re-chunking work on the next session, never correctness.
"""

from __future__ import annotations

from typing import Iterable

from repro.core import naming
from repro.core.recipe import FileEntry
from repro.errors import ObjectNotFound

__all__ = ["read_epoch", "invalidate_statcache", "unchanged", "revalidate"]


def read_epoch(cloud, key: str = naming.STATCACHE_EPOCH_KEY) -> int:
    """Current GC epoch of ``cloud`` (0 when none was ever written)."""
    try:
        return int(cloud.get(key).decode("ascii"))
    except ObjectNotFound:
        return 0
    except ValueError:
        # A corrupt epoch object cannot prove caches current; treating
        # it as a fresh epoch forces every client to drop its cache.
        return 0


def invalidate_statcache(cloud, tenant_keys: Iterable[str] = ()) -> None:
    """Bump the GC epoch at the root and in every tenant namespace
    ``tenant_keys`` (a listing of the tenant subtree) names.

    Called by the garbage collector after a sweep that deleted data:
    live clients' caches and indexes may reference the deleted extents,
    and each client learns it from the epoch at its next session open.
    """
    namespaces = {naming.split_tenant_key(key)[0] for key in tenant_keys}
    for namespace in [None, *sorted(namespaces - {None})]:
        key = naming.tenant_key(namespace, naming.STATCACHE_EPOCH_KEY)
        cloud.put(key, str(read_epoch(cloud, key) + 1).encode("ascii"))


def unchanged(entry: FileEntry, size: int, mtime_ns: int) -> bool:
    """Whether ``entry`` still describes a file of this size and mtime.

    Both must be equal — an mtime rollback with a same-size content
    change must not pass — and a zero mtime never does: it is the
    "unknown" sentinel of mtime-less sources.  The stat cache, Jungle
    Disk's change detection and the trace engine all decide by it.
    """
    return mtime_ns != 0 and (entry.size, entry.mtime_ns) == (size, mtime_ns)


def revalidate(cached: FileEntry, index, namespace: str) -> bool:
    """Whether a matched recipe still resolves in the live index.

    Every ref must still resolve to the same container extent (or
    standalone object) in ``index`` (an
    :class:`~repro.index.appaware.AppAwareIndex`); tiny-file refs bypass
    the index by design and are covered by the GC-epoch check alone.
    Only looks up, never writes.  On ``False`` the caller runs the full
    pipeline.
    """
    if cached.tiny:
        return True
    for ref in cached.refs:
        existing = index.lookup(namespace, ref.fingerprint)
        if existing is None:
            return False
        if ref.in_container and (
                existing.container_id != ref.container_id
                or existing.offset != ref.offset):
            return False
    return True
