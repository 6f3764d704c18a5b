"""Cross-session unchanged-file recipe cache (the *stat cache*).

AA-Dedupe's premise is repeated backups of the same PC dataset, where
the overwhelming majority of files are byte-identical between sessions.
Re-reading, re-chunking and re-hashing them every session is the
dominant client CPU cost; this cache removes it.  After a successful
session the client remembers, per application, each file's
``(path, size, mtime_ns)`` stat triple together with its committed
recipe (:class:`~repro.core.recipe.FileEntry`).  On the next session a
file whose triple matches replays the cached :class:`ChunkRef` chain
straight into the manifest — no ``read()``, no chunking, no hashing —
while the engine still feeds the dedup accounting.

Safety rules (see docs/STATCACHE.md):

* a triple matches only when **both** size and ``mtime_ns`` are equal;
  ``mtime_ns == 0`` means "unknown" and never matches or records —
  sources without modification stamps always take the full pipeline;
* replayed refs are revalidated against the live index before use, and
  a stale hit falls back to the full pipeline;
* the resident cache is stamped with the cloud's **GC epoch**
  (:data:`repro.core.naming.STATCACHE_EPOCH_KEY`); a ``repro gc`` sweep
  that deletes data bumps the epoch via :func:`invalidate_statcache`,
  so no cached ref can outlive a collection that may have removed its
  extents.

Nothing is persisted: the cache after a committed session is exactly
that session's manifest entries with a known mtime, so a new process
rebuilds it from the newest manifest
(:meth:`~repro.core.backup.BackupClient.resume_from_cloud`).  The cache
is a pure performance hint: losing it (crash, epoch bump) costs
re-chunking work on the next session, never correctness.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core import naming
from repro.core.recipe import FileEntry
from repro.errors import ObjectNotFound

__all__ = ["FileCache", "read_epoch", "invalidate_statcache", "unchanged"]


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
    "unknown" sentinel of mtime-less sources.  The stat cache and
    Jungle-Disk change detection both decide by this rule.
    """
    return mtime_ns != 0 and (entry.size, entry.mtime_ns) == (size, mtime_ns)


class FileCache:
    """Per-application ``(path, size, mtime_ns) -> FileEntry`` map.

    Session lifecycle: :meth:`begin_session` drops any staging left by
    a failed run, :meth:`record` stages every entry the session commits
    to its manifest (replayed or freshly processed), and
    :meth:`commit` — called only after the manifest upload succeeded —
    promotes the staged generation.  Until ``commit``, lookups keep
    serving the previous successful session, so a crashed session never
    poisons the cache.  :meth:`open_session` validates the GC epoch at
    the start of each session; :meth:`rebuild` installs a resumed
    client's cache from the newest manifest.

    All access happens on the backup coordinator thread; the class is
    intentionally unsynchronised.
    """

    def __init__(self) -> None:
        #: Committed generation: app label -> path -> FileEntry.
        self._apps: Dict[str, Dict[str, FileEntry]] = {}
        #: Staging area for the in-flight session.
        self._staged: Dict[str, Dict[str, FileEntry]] = {}
        #: GC epoch the committed generation is valid for.
        self.epoch: int = 0

    def __len__(self) -> int:
        return sum(len(files) for files in self._apps.values())

    # -- lookups --------------------------------------------------------
    def match(self, app: str, path: str, size: int,
              mtime_ns: int) -> Optional[FileEntry]:
        """Cached entry for ``path`` iff :func:`unchanged` holds."""
        entry = self._apps.get(app, {}).get(path)
        if entry is None or not unchanged(entry, size, mtime_ns):
            return None
        return entry

    @staticmethod
    def revalidate(cached: FileEntry, index, namespace: str) -> bool:
        """Revalidate a matched recipe against the live index.

        Every non-delta ref in every chain must still resolve to the
        same container extent (or standalone object) in ``index`` (an
        :class:`~repro.index.appaware.AppAwareIndex`); tiny-file refs
        bypass the index by design and are covered by the GC-epoch
        check alone.  Only looks up, never writes.  On ``False`` the
        caller discards the entry and runs the full pipeline.
        """
        for top in cached.refs:
            ref = top
            while ref is not None:
                if not ref.is_delta and not cached.tiny:
                    existing = index.lookup(namespace, ref.fingerprint)
                    if existing is None:
                        return False
                    if ref.in_container and (
                            existing.container_id != ref.container_id
                            or existing.offset != ref.offset):
                        return False
                ref = ref.delta_base
        return True

    def discard(self, app: str, path: str) -> None:
        """Forget one entry (its refs failed revalidation)."""
        self._apps.get(app, {}).pop(path, None)

    # -- session lifecycle ----------------------------------------------
    def begin_session(self) -> None:
        """Reset staging (discards leftovers of any failed session)."""
        self._staged = {}

    def record(self, entry: FileEntry) -> None:
        """Stage one committed-manifest entry for the next generation."""
        if entry.mtime_ns == 0:
            return  # unknown mtime can never be matched — don't keep it
        self._staged.setdefault(entry.app, {})[entry.path] = entry

    def commit(self) -> None:
        """Promote the staged generation."""
        self._apps, self._staged = self._staged, {}

    def clear(self) -> None:
        """Drop everything (epoch mismatch)."""
        self._apps = {}
        self._staged = {}

    def rebuild(self, entries: Iterable[FileEntry], epoch: int) -> None:
        """Replace the cache with ``entries`` — a resumed client passes
        the newest manifest's — valid for GC epoch ``epoch``."""
        self.begin_session()
        for entry in entries:
            self.record(entry)
        self.commit()
        self.epoch = epoch

    # -- the GC epoch ---------------------------------------------------
    def open_session(self, epoch: Optional[int]) -> bool:
        """Start-of-session epoch validation; returns whether replays
        are allowed this session.

        ``epoch`` is the cloud's GC epoch the engine read at session
        open (``None``: unreadable — no replay).  A sweep between
        sessions may have deleted extents the cached recipes reference,
        so a changed epoch drops the cache.
        """
        self.begin_session()
        if epoch is None:
            return False
        if epoch != self.epoch:
            self.clear()
            self.epoch = epoch
        return len(self) > 0
