"""Deterministic replica placement across fault domains.

A *fault domain* is a named group of blobs expected to fail together —
an availability zone, a disk shelf, a storage account.  The store
models domains logically: every container is *assigned* to a primary
domain by its id, and its replicas are placed in the following domains
round-robin, so ``R`` copies always occupy ``R`` distinct domains.  The
assignment is a pure function of ``(container_id, domains)`` — no
placement table to lose, and every client computes identical keys.

Replica copies are byte-identical to the primary and live at
``replicas/<domain>/containers/<id>`` (:func:`repro.core.naming.replica_key`);
the primary keeps its classic ``containers/<id>`` key so every existing
reader works unchanged.

:func:`kill_domain` implements the failure model for chaos tests: it
deletes every replica hosted in the domain *and* every primary assigned
to it — exactly what losing one zone of a real deployment would take
out.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core import naming
from repro.errors import ConfigError

__all__ = ["DEFAULT_DOMAIN_COUNT", "default_domains", "primary_domain",
           "replica_domains", "replica_keys", "kill_domain"]

#: Three domains cover the paper's deployment class (one consumer cloud
#: account spread over availability zones) and allow up to R=3.
DEFAULT_DOMAIN_COUNT = 3


def default_domains(count: int = DEFAULT_DOMAIN_COUNT) -> Tuple[str, ...]:
    """``count`` generically-named fault domains (``d0``, ``d1``, ...)."""
    if count < 1:
        raise ConfigError("need at least one fault domain")
    return tuple(f"d{i}" for i in range(count))


def primary_domain(container_id: int,
                   domains: Sequence[str]) -> str:
    """Fault domain the primary copy of ``container_id`` is assigned to."""
    if not domains:
        raise ConfigError("need at least one fault domain")
    return domains[container_id % len(domains)]


def replica_domains(container_id: int, domains: Sequence[str],
                    replicas: int) -> List[str]:
    """Domains hosting the ``replicas`` total copies beyond the primary.

    Copies rotate away from the primary's domain, so ``replicas`` of
    ``R`` places ``R - 1`` replica copies in the ``R - 1`` domains after
    the primary's — all distinct while ``R <= len(domains)``.
    """
    if not domains:
        raise ConfigError("need at least one fault domain")
    n = len(domains)
    start = container_id % n
    count = min(max(replicas, 1), n) - 1
    return [domains[(start + i) % n] for i in range(1, count + 1)]


def replica_keys(container_id: int, domains: Sequence[str],
                 replicas: int) -> List[str]:
    """Cloud keys of every replica copy of ``container_id``."""
    return [naming.replica_key(domain, container_id)
            for domain in replica_domains(container_id, domains, replicas)]


def kill_domain(cloud, domain: str, domains: Sequence[str]) -> int:
    """Destroy fault domain ``domain``: every replica it hosts and every
    primary container assigned to it.  Returns the number of objects
    deleted.  This is the chaos-test failure model, not an operation a
    healthy deployment performs.
    """
    killed = 0
    for key in list(cloud.list(naming.REPLICA_PREFIX + domain + "/")):
        if cloud.delete(key):
            killed += 1
    for key in list(cloud.list(naming.CONTAINER_PREFIX)):
        container_id = naming.container_id_of(key)
        if (container_id is not None
                and primary_domain(container_id, domains) == domain
                and cloud.delete(key)):
            killed += 1
    return killed
