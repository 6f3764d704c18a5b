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
truth for both layers.  Every file of a category gets that category's
one policy: there are no per-application overrides.  :func:`make_chunker`
is the one name → chunker table (``wfc``, ``sc`` and the CDC family
``cdc``, ``gear``, ``fastcdc``, ``seqcdc``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.chunking import (Chunker, FastCDC, GearCDC, RabinCDC, SeqCDC,
                            StaticChunker, WholeFileChunker)
from repro.classify.filetype import Category
from repro.errors import ConfigError
from repro.hashing import Fingerprinter, get_hash
from repro.util.units import KIB

__all__ = ["DedupPolicy", "AA_POLICY_TABLE", "make_chunker"]


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


#: Chunker classes addressable from a policy, by policy name — the one
#: name → chunker table.
_POLICY_CHUNKERS = {
    "wfc": WholeFileChunker,
    "sc": StaticChunker,
    "cdc": RabinCDC,
    "gear": GearCDC,
    "fastcdc": FastCDC,
    "seqcdc": SeqCDC,
}


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


#: The AA-Dedupe policy table — the paper's Fig. 6, as data.
AA_POLICY_TABLE: Dict[Category, DedupPolicy] = {
    Category.COMPRESSED: DedupPolicy("wfc", "rabin12"),
    Category.STATIC: DedupPolicy("sc", "md5", {"chunk_size": 8 * KIB}),
    Category.DYNAMIC: DedupPolicy(
        "cdc", "sha1",
        {"avg_size": 8 * KIB, "min_size": 2 * KIB, "max_size": 16 * KIB,
         "window": 48}),
}
