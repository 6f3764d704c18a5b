"""Fingerprinter interface and name registry.

A *fingerprinter* maps a chunk's bytes to a short digest used as its
identity in the chunk index.  The registry lets scheme policies refer to
hashes by name (``"rabin12"``, ``"md5"``, ``"sha1"``), which is how the
application-aware policy table (paper Fig. 6) is expressed in
:mod:`repro.classify.policy`.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict

from repro.errors import HashError

__all__ = ["Fingerprinter", "register_hash", "get_hash",
           "available_hashes", "hash_for_digest_len"]


class Fingerprinter(abc.ABC):
    """Abstract chunk fingerprint function.

    Subclasses must set :attr:`name` and :attr:`digest_size` (bytes) and
    implement :meth:`hash`.  Instances are stateless and safe to share
    across threads.
    """

    #: Registry name, e.g. ``"md5"``.
    name: str = ""
    #: Digest length in bytes (12 for extended Rabin, 16 MD5, 20 SHA-1).
    digest_size: int = 0

    @abc.abstractmethod
    def hash(self, data: bytes) -> bytes:
        """Return the ``digest_size``-byte fingerprint of ``data``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} name={self.name!r} "
                f"bits={self.digest_size * 8}>")


_REGISTRY: Dict[str, Callable[[], Fingerprinter]] = {}
_INSTANCES: Dict[str, Fingerprinter] = {}


def register_hash(name: str, factory: Callable[[], Fingerprinter]) -> None:
    """Register a fingerprinter factory under ``name``.

    Used by the concrete modules at import time; downstream users may also
    register custom hashes (e.g. a BLAKE wrapper) to extend the policy
    table without touching library code.
    """
    if name in _REGISTRY:
        raise HashError(f"hash {name!r} already registered")
    _REGISTRY[name] = factory


def get_hash(name: str) -> Fingerprinter:
    """Return the (cached, shared) fingerprinter registered as ``name``."""
    try:
        inst = _INSTANCES.get(name)
        if inst is None:
            inst = _INSTANCES[name] = _REGISTRY[name]()
        return inst
    except KeyError:
        raise HashError(
            f"unknown hash {name!r}; available: {sorted(_REGISTRY)}") from None


def available_hashes() -> list[str]:
    """Names of all registered fingerprinters, sorted."""
    return sorted(_REGISTRY)


def hash_for_digest_len(digest_len: int):
    """Fingerprinter whose digest is ``digest_len`` bytes, or ``None``.

    Stored fingerprints are self-describing by width (12 B extended
    Rabin / 16 B MD5 / 20 B SHA-1), which is how restore and scrub pick
    the verification hash with no side channel.  Resolution is driven
    by the registry itself — a downstream-registered hash with a new
    digest width is picked up automatically — instead of per-caller
    literal tables that drift apart.  Ambiguity (two registered hashes
    of equal width) resolves to the alphabetically first name, keeping
    the answer deterministic.
    """
    for name in available_hashes():
        fingerprinter = get_hash(name)
        if fingerprinter.digest_size == digest_len:
            return fingerprinter
    return None
