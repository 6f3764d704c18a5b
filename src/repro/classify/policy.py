"""The intelligent-chunking policy table (paper Fig. 6).

Maps each :class:`~repro.classify.filetype.Category` to its chunking
method and fingerprint hash:

===================  =======  ==================  ===========
Category             Chunker  Hash                Digest size
===================  =======  ==================  ===========
compressed           WFC      extended Rabin      12 B
static uncompressed  SC 8KiB  MD5                 16 B
dynamic uncompressed CDC 8KiB SHA-1               20 B
===================  =======  ==================  ===========

A :class:`DedupPolicy` is a *description* (names + parameters); the real
engine instantiates chunkers/hashes from it, and the trace engine reads
the very same description to charge modelled CPU costs — one source of
truth for both layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.chunking import (CDC_FAMILY, Chunker, FastCDC, GearCDC, RabinCDC,
                            SeqCDC, StaticChunker, WholeFileChunker)
from repro.classify.filetype import Category
from repro.errors import ConfigError
from repro.hashing import Fingerprinter, get_hash
from repro.util.units import KIB

__all__ = ["DedupPolicy", "AA_POLICY_TABLE", "make_chunker",
           "retarget_policy"]


@dataclass(frozen=True)
class DedupPolicy:
    """Declarative (chunking, hashing) choice for one file category."""

    #: ``"wfc"``, ``"sc"`` or a CDC-family name (``"cdc"``, ``"gear"``,
    #: ``"fastcdc"``, ``"seqcdc"``).
    chunker: str
    #: Registered hash name (``"rabin12"``, ``"md5"``, ``"sha1"``).
    hash_name: str
    #: Chunker keyword parameters (sizes in bytes).
    chunker_params: Mapping[str, int] = field(default_factory=dict)

    def make_chunker(self) -> Chunker:
        """Instantiate the configured chunker."""
        return make_chunker(self.chunker, dict(self.chunker_params))

    def fingerprinter(self) -> Fingerprinter:
        """Resolve the configured fingerprint hash (shared instance)."""
        return get_hash(self.hash_name)

    @property
    def average_chunk_size(self) -> float:
        """Nominal average chunk size (``inf`` for WFC), for cost models."""
        return self.make_chunker().average_chunk_size()


#: Chunker classes addressable from a policy, by policy name.
_POLICY_CHUNKERS = {
    "wfc": WholeFileChunker,
    "sc": StaticChunker,
    "cdc": RabinCDC,
    "gear": GearCDC,
    "fastcdc": FastCDC,
    "seqcdc": SeqCDC,
}

#: Geometry parameters shared by every CDC-family chunker; anything
#: else in ``chunker_params`` (Rabin's ``window``, FastCDC's
#: ``norm_level``, …) is engine-specific and dropped when a policy is
#: re-targeted at a different family member.
_CDC_GEOMETRY = ("avg_size", "min_size", "max_size")


def make_chunker(name: str, params: Dict[str, int]) -> Chunker:
    """Construct a chunker by policy name with explicit parameters."""
    try:
        factory = _POLICY_CHUNKERS[name]
    except KeyError:
        valid = ", ".join(sorted(_POLICY_CHUNKERS))
        raise ConfigError(
            f"unknown chunker name in policy: {name!r}; "
            f"valid chunkers: {valid}") from None
    return factory(**params) if params else factory()


def retarget_policy(policy: DedupPolicy, chunker: str) -> DedupPolicy:
    """Re-target ``policy`` at a CDC-family engine, from any chunkable base.

    The fingerprint hash carries over unchanged — chunk identity is a
    property of the digest, not of where the cuts fall.  A CDC-family
    base keeps its shared size geometry; engine-specific parameters
    (e.g. Rabin's ``window``) are dropped in favour of the new engine's
    defaults, and re-targeting at the base's own engine is the
    identity.  A static-chunked base (e.g. the AA table's VM-image row,
    under a per-application ``SchemeConfig.app_chunkers`` override)
    gets a CDC geometry derived from its SC chunk size the same way the
    AA table relates its DYNAMIC row to its 8 KiB average —
    ``min = avg/4``, ``max = avg*2``.  WFC bases refuse: re-chunking
    compressed content buys nothing (Observation 1), so an override
    there is a configuration mistake, not a tuning choice.
    """
    if chunker not in CDC_FAMILY:
        raise ConfigError(
            f"unknown CDC-family chunker {chunker!r}; "
            f"valid: {', '.join(CDC_FAMILY)}")
    if policy.chunker == chunker:
        return policy
    if policy.chunker in CDC_FAMILY:
        params = {key: value for key, value in policy.chunker_params.items()
                  if key in _CDC_GEOMETRY}
    elif policy.chunker == "sc":
        avg = int(policy.chunker_params.get("chunk_size", 8 * KIB))
        params = {"avg_size": avg, "min_size": max(avg // 4, 64),
                  "max_size": avg * 2}
    else:
        raise ConfigError(
            f"cannot re-target a {policy.chunker!r} policy at {chunker!r}: "
            f"only CDC-family and SC bases have a content-defined stage "
            f"to swap")
    return DedupPolicy(chunker, policy.hash_name, params)


#: The AA-Dedupe policy table — the paper's Fig. 6, as data.
AA_POLICY_TABLE: Dict[Category, DedupPolicy] = {
    Category.COMPRESSED: DedupPolicy("wfc", "rabin12"),
    Category.STATIC: DedupPolicy("sc", "md5", {"chunk_size": 8 * KIB}),
    Category.DYNAMIC: DedupPolicy(
        "cdc", "sha1",
        {"avg_size": 8 * KIB, "min_size": 2 * KIB, "max_size": 16 * KIB,
         "window": 48}),
}
