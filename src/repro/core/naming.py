"""Cloud object key conventions shared by backup, restore and GC,
and the one tenant key map: private keys nest under ``clients/<ns>/``,
the :data:`SHARED_PREFIXES` subtrees are one pool every tenant addresses
verbatim (:class:`repro.cloud.NamespacedBackend`, :mod:`repro.core.walk`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

__all__ = ["container_key", "container_id_of", "next_container_ids",
           "chunk_key", "file_key",
           "manifest_key", "session_id_of", "session_ids", "journal_key",
           "replica_key", "parse_replica_key", "tenant_key",
           "split_tenant_key", "tenant_keys", "MANIFEST_PREFIX",
           "CONTAINER_PREFIX", "CHUNK_PREFIX", "FILE_PREFIX",
           "JOURNAL_PREFIX", "STATCACHE_EPOCH_KEY",
           "REPLICA_PREFIX", "DURABILITY_PREFIX", "DURABILITY_PLAN_KEY",
           "SHARED_PREFIXES", "CONTAINER_ID_STRIDE"]

CONTAINER_PREFIX = "containers/"
CHUNK_PREFIX = "chunks/"
FILE_PREFIX = "files/"
MANIFEST_PREFIX = "manifests/"
JOURNAL_PREFIX = "journals/"
#: Monotonic GC generation stamp; every sweep that deletes data bumps
#: it, so a live client forgets what the sweep may have deleted.
STATCACHE_EPOCH_KEY = "statcache/EPOCH"
#: Container replicas, segregated by fault domain (see
#: :mod:`repro.durability`): ``replicas/<domain>/containers/<id>``.
REPLICA_PREFIX = "replicas/"
#: Durability metadata (the persisted replication plan).
DURABILITY_PREFIX = "durability/"
DURABILITY_PLAN_KEY = "durability/plan.json"
#: Root of per-tenant namespaces: ``clients/<ns>/<key>``.
TENANT_PREFIX = "clients/"
#: Subtrees tenants share: the container and chunk pools (cross-client
#: dedup) and the replicas and plan (any restore may fail over).
SHARED_PREFIXES = (CONTAINER_PREFIX, CHUNK_PREFIX, REPLICA_PREFIX,
                   DURABILITY_PREFIX)
#: Container-id lane of one client sharing a pool (fleet client,
#: service job): rank ``r`` allocates in ``[r·stride, (r+1)·stride)``.
CONTAINER_ID_STRIDE = 1_000_000


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


def next_container_ids(cloud) -> Dict[int, int]:
    """Per-rank next free container id of a shared pool (rank ``r``
    allocates in ``[r·stride, (r+1)·stride)``); a rank with no container
    is absent.  A re-instantiated orchestrator must allocate *above*
    every container its rank ever sealed, and container keys are the
    only durable record of them, so scan them (one listing)."""
    next_ids: Dict[int, int] = {}
    for container_id in map(container_id_of, cloud.list(CONTAINER_PREFIX)):
        if container_id is not None:
            rank = container_id // CONTAINER_ID_STRIDE
            next_ids[rank] = max(next_ids.get(rank, 0), container_id + 1)
    return next_ids


def chunk_key(fingerprint: bytes) -> str:
    """Key of a directly-uploaded chunk (schemes without containers)."""
    return f"{CHUNK_PREFIX}{fingerprint.hex()}"


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


def journal_key(session_id: int, segment: int = 0) -> str:
    """Key of segment ``segment`` of an in-flight session's journal."""
    return f"{JOURNAL_PREFIX}session-{session_id:06d}.{segment:06d}.json"


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


def tenant_key(namespace: Optional[str], key: str) -> str:
    """Raw backend key of ``key`` as tenant ``namespace`` sees it:
    shared subtrees pass verbatim, private keys nest under
    ``clients/<ns>/``; ``namespace=None`` is the root."""
    if namespace is None or key.startswith(SHARED_PREFIXES):
        return key
    return f"{TENANT_PREFIX}{namespace}/{key}"


def split_tenant_key(key: str) -> Tuple[Optional[str], str]:
    """``(namespace, key as the tenant sees it)`` of a raw key — the
    inverse of :func:`tenant_key`; ``(None, key)`` for a root key."""
    if key.startswith(TENANT_PREFIX):
        namespace, sep, rest = key[len(TENANT_PREFIX):].partition("/")
        if namespace and sep:
            return namespace, rest
    return None, key


def tenant_keys(cloud) -> List[str]:
    """Every key of every tenant namespace (one listing)."""
    return list(cloud.list(TENANT_PREFIX))
