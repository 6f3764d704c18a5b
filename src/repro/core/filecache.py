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
while the engine still bumps index refcounts and feeds the dedup
accounting.

Safety rules (see docs/STATCACHE.md):

* a triple matches only when **both** size and ``mtime_ns`` are equal;
  ``mtime_ns == 0`` means "unknown" and never matches or records —
  sources without modification stamps always take the full pipeline;
* replayed refs are revalidated against the live index before use, and
  a stale hit falls back to the full pipeline;
* every persisted blob and the resident cache are stamped with the
  cloud's **GC epoch** (:data:`repro.core.naming.STATCACHE_EPOCH_KEY`);
  a ``repro gc`` sweep that deletes data bumps the epoch via
  :func:`invalidate_statcache`, so no cached ref can outlive a
  collection that may have removed its extents.

The cache is a pure performance hint: losing it (crash, failed save,
epoch bump) costs re-chunking work on the next session, never
correctness.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.core import naming
from repro.core.recipe import FileEntry
from repro.errors import CloudError, ObjectNotFound

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


def invalidate_statcache(cloud, tenant_keys: Iterable[str] = ()) -> int:
    """Drop every persisted stat-cache blob and bump the GC epoch, at
    the root and in every tenant namespace ``tenant_keys`` (a listing of
    the tenant subtree) names — blob-less ones included, since the epoch
    guards every client-side copy of store state.

    Called by the garbage collector after a sweep that deleted data:
    client caches and indexes may reference the deleted extents.
    Returns the number of blobs deleted.
    """
    namespaces = set()
    deleted = 0
    for key in [*cloud.list(naming.STATCACHE_PREFIX), *tenant_keys]:
        namespace, private = naming.split_tenant_key(key)
        namespaces.add(namespace)
        if private.startswith(naming.STATCACHE_PREFIX) \
                and private != naming.STATCACHE_EPOCH_KEY:
            cloud.delete(key)
            deleted += 1
    for namespace in [None, *sorted(namespaces - {None})]:
        key = naming.tenant_key(namespace, naming.STATCACHE_EPOCH_KEY)
        cloud.put(key, str(read_epoch(cloud, key) + 1).encode("ascii"))
    return deleted


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
    promotes the staged generation, returning the application labels
    whose persisted blob is now out of date.  Until ``commit``, lookups
    keep serving the previous successful session, so a crashed session
    never poisons the cache.  :meth:`open_session` / :meth:`close_session`
    wrap that lifecycle in the cloud protocol (GC-epoch validation and
    blob persistence) the backup engine drives.

    All access happens on the backup coordinator thread; the class is
    intentionally unsynchronised.
    """

    FORMAT = 1

    def __init__(self, scheme: str) -> None:
        self._scheme = scheme
        #: Committed generation: app label -> path -> FileEntry.
        self._apps: Dict[str, Dict[str, FileEntry]] = {}
        #: Staging area for the in-flight session.
        self._staged: Dict[str, Dict[str, FileEntry]] = {}
        #: GC epoch the committed generation is valid for.
        self.epoch: int = 0
        #: Whether the cache may be persisted at session close.
        self._persist_ok = False

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
        """Revalidate a matched recipe against the live index and bump.

        Every non-delta ref in every chain must still resolve to the
        same container extent (or standalone object) in ``index`` (an
        :class:`~repro.index.appaware.AppAwareIndex`); tiny-file refs
        bypass the index by design and are covered by the GC-epoch
        check alone.  Refcounts are bumped only after *all* refs
        validate, so a stale entry leaves no partial refcount churn
        behind.  On ``False`` the caller discards the entry and runs
        the full pipeline.
        """
        bumps = []
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
                    bumps.append(existing)
                ref = ref.delta_base
        for existing in bumps:
            index.insert(namespace, existing.bumped())
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

    def commit(self) -> List[str]:
        """Promote the staged generation; return dirty app labels.

        An application is dirty when its staged map differs from the
        committed one — including apps whose files all vanished this
        session (their blob must be rewritten as empty).
        """
        dirty = [app for app in sorted(set(self._staged) | set(self._apps))
                 if self._staged.get(app, {}) != self._apps.get(app, {})]
        self._apps = self._staged
        self._staged = {}
        return dirty

    def clear(self) -> None:
        """Drop everything (epoch mismatch / load failure)."""
        self._apps = {}
        self._staged = {}

    # -- cloud protocol -------------------------------------------------
    def open_session(self, epoch: Optional[int]) -> bool:
        """Start-of-session epoch validation; returns whether replays
        are allowed this session.

        ``epoch`` is the cloud's GC epoch the engine read at session
        open (``None``: unreadable — no replay, no persistence).  A
        sweep between sessions may have deleted extents the cached
        recipes reference, so a changed epoch drops the cache.
        """
        self.begin_session()
        self._persist_ok = epoch is not None
        if epoch is None:
            return False
        if epoch != self.epoch:
            self.clear()
            self.epoch = epoch
        return len(self) > 0

    def close_session(self, put, warnings: list, tracer) -> None:
        """Promote and (best-effort) persist the cache post-manifest.

        Call only after the manifest upload succeeded — the session is
        committed, so every staged recipe is durably referenced.  Dirty
        blobs go out through ``put(key, blob)``, stamped with the epoch
        the session opened under.  A failed save degrades to a warning:
        the resident cache is already current, and a stale cloud blob
        is safe (its refs stay live until a GC sweep, which bumps the
        epoch it is stamped with).
        """
        dirty = self.commit()
        if not self._persist_ok:
            return
        for app in dirty:
            blob = self.blob_for(app)
            try:
                with tracer.span("statcache.save", app=app,
                                 bytes=len(blob)):
                    put(naming.statcache_key(app), blob)
            except CloudError as exc:
                warnings.append(
                    f"stat cache save failed for {app!r} "
                    f"(retried next session): {exc}")

    def load(self, cloud, epoch: int) -> int:
        """Pull persisted blobs (disaster-recovery resume); returns the
        number of file entries recovered.  Blobs stamped with another GC
        epoch than ``epoch`` or another scheme are ignored; any cloud
        failure degrades to an empty cache."""
        loaded = 0
        self.epoch = epoch
        try:
            for key in cloud.list(naming.STATCACHE_PREFIX):
                if key == naming.STATCACHE_EPOCH_KEY:
                    continue
                try:
                    loaded += self.load_blob(cloud.get(key))
                except (ValueError, KeyError):
                    continue  # corrupt blob: equivalent to a cache miss
        except CloudError:
            self.clear()
            return 0
        return loaded

    # -- persistence ----------------------------------------------------
    def blob_for(self, app: str) -> bytes:
        """Serialised cache blob for one application."""
        files = self._apps.get(app, {})
        doc = {
            "format": self.FORMAT,
            "scheme": self._scheme,
            "epoch": self.epoch,
            "app": app,
            "files": [files[path].to_json() for path in sorted(files)],
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    def load_blob(self, blob: bytes) -> int:
        """Install one persisted blob; returns entries loaded.

        Blobs from another scheme, another format or another GC epoch
        are ignored — their refs cannot be trusted.  Raises ``ValueError``
        / ``KeyError`` on structurally-corrupt input (callers treat that
        the same as a missing blob).
        """
        doc = json.loads(blob)
        if (doc.get("format") != self.FORMAT
                or doc.get("scheme") != self._scheme
                or int(doc.get("epoch", -1)) != self.epoch):
            return 0
        entries = {e["path"]: FileEntry.from_json(e)
                   for e in doc["files"]}
        if entries:
            self._apps[str(doc["app"])] = entries
        return len(entries)
