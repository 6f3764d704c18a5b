"""Cloud object key conventions shared by backup, restore, sync and GC."""

from __future__ import annotations

import hashlib
from typing import Optional

__all__ = ["container_key", "container_id_of", "chunk_key", "file_key",
           "manifest_key", "session_id_of", "session_ids", "index_key", "journal_key", "delta_key", "statcache_key",
           "replica_key", "parse_replica_key", "namespaced_keys",
           "MANIFEST_PREFIX", "CONTAINER_PREFIX", "CHUNK_PREFIX",
           "FILE_PREFIX", "INDEX_PREFIX", "JOURNAL_PREFIX",
           "DELTA_PREFIX", "STATCACHE_PREFIX", "STATCACHE_EPOCH_KEY",
           "REPLICA_PREFIX", "DURABILITY_PREFIX", "DURABILITY_PLAN_KEY",
           "TENANT_PREFIX"]

CONTAINER_PREFIX = "containers/"
CHUNK_PREFIX = "chunks/"
FILE_PREFIX = "files/"
MANIFEST_PREFIX = "manifests/"
INDEX_PREFIX = "index/"
JOURNAL_PREFIX = "journals/"
DELTA_PREFIX = "deltas/"
STATCACHE_PREFIX = "statcache/"
#: Monotonic GC generation stamp; every sweep that deletes data bumps
#: it, invalidating any persisted (or resident) stat-cache state.
STATCACHE_EPOCH_KEY = "statcache/EPOCH"
#: Container replicas, segregated by fault domain (see
#: :mod:`repro.durability`): ``replicas/<domain>/containers/<id>``.
REPLICA_PREFIX = "replicas/"
#: Durability metadata (the persisted replication plan).
DURABILITY_PREFIX = "durability/"
DURABILITY_PLAN_KEY = "durability/plan.json"
#: Root of per-tenant namespaces (see
#: :class:`repro.cloud.NamespacedBackend`).
TENANT_PREFIX = "clients/"


def container_key(container_id: int) -> str:
    """Key of a sealed container blob."""
    return f"{CONTAINER_PREFIX}{container_id:010d}"


def container_id_of(key: str) -> Optional[int]:
    """Container id of a primary container key — the inverse of
    :func:`container_key`; ``None`` for a key that names no container
    (anything else that ends up under ``containers/``)."""
    stem = key[len(CONTAINER_PREFIX):]
    if not key.startswith(CONTAINER_PREFIX) or not stem.isdecimal():
        return None
    return int(stem)


def chunk_key(fingerprint: bytes) -> str:
    """Key of a directly-uploaded chunk (schemes without containers)."""
    return f"{CHUNK_PREFIX}{fingerprint.hex()}"


def delta_key(blob_digest: bytes) -> str:
    """Key of a directly-uploaded delta blob, addressed by the digest of
    the *blob itself* — never by the target chunk's fingerprint, which
    would alias with ``chunk_key`` and let a later full store of the
    same chunk clobber a blob that older manifests still reference."""
    return f"{DELTA_PREFIX}{blob_digest.hex()}"


def file_key(session_id: int, path: str) -> str:
    """Key of a whole-file object (incremental / file-granularity schemes).

    The path is hashed so arbitrary client paths map to flat safe keys.
    """
    digest = hashlib.sha1(path.encode("utf-8")).hexdigest()
    return f"{FILE_PREFIX}{session_id:06d}/{digest}"


def manifest_key(session_id: int) -> str:
    """Key of a session manifest."""
    return f"{MANIFEST_PREFIX}session-{session_id:06d}.json"


def session_id_of(key: str) -> Optional[int]:
    """Session id of a manifest (or journal) key — the inverse of
    :func:`manifest_key`, tenant prefix or not; ``None`` for a key that
    names no session."""
    stem = key.rsplit("session-", 1)[-1].split(".", 1)[0]
    try:
        return int(stem)
    except ValueError:
        return None


def session_ids(cloud) -> list:
    """Ascending ids of the sessions whose manifests ``cloud`` lists
    (keys that name no session are skipped)."""
    ids = map(session_id_of, cloud.list(MANIFEST_PREFIX))
    return sorted(sid for sid in ids if sid is not None)


def journal_key(session_id: int) -> str:
    """Key of an in-flight session's upload journal (resume support)."""
    return f"{JOURNAL_PREFIX}session-{session_id:06d}.json"


def index_key(app: str) -> str:
    """Key of one application subindex replica (periodic sync)."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in app)
    return f"{INDEX_PREFIX}{safe}.idx"


def statcache_key(app: str) -> str:
    """Key of one application's persisted stat-cache blob."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in app)
    return f"{STATCACHE_PREFIX}{safe}.fc"


def replica_key(domain: str, container_id: int) -> str:
    """Key of a container replica inside fault domain ``domain``."""
    return f"{REPLICA_PREFIX}{domain}/{container_key(container_id)}"


def parse_replica_key(key: str):
    """``(domain, container_id)`` of a replica key, or ``None``.

    Inverse of :func:`replica_key`; malformed keys (wrong prefix, bad
    id) return ``None`` instead of raising, so sweeps can skip them.
    """
    if not key.startswith(REPLICA_PREFIX):
        return None
    rest = key[len(REPLICA_PREFIX):]
    domain, sep, container = rest.partition("/")
    container_id = container_id_of(container)
    if not sep or not domain or container_id is None:
        return None
    return domain, container_id


def namespaced_keys(cloud, prefix: str) -> list:
    """All keys under ``prefix``, in the root *and* every tenant
    namespace of a shared backend.

    A fleet backend holds each client's private state under
    ``clients/<ns>/<prefix>...`` (see
    :class:`repro.cloud.NamespacedBackend`); fleet-wide walks (scrub,
    GC liveness, durability criticality) must see those keys too.  On a
    single-tenant store the extra list returns nothing.
    """
    keys = list(cloud.list(prefix))
    for key in cloud.list(TENANT_PREFIX):
        parts = key.split("/", 2)
        if len(parts) == 3 and parts[2].startswith(prefix):
            keys.append(key)
    return keys
