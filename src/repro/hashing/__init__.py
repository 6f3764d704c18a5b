"""Fingerprinting substrate: Rabin (GF(2)) fingerprints, MD5/SHA-1, and
collision-probability analysis.

AA-Dedupe's hash-selection policy (paper Sec. III-D) pairs each chunking
granularity with the cheapest hash whose collision probability is still
negligible at PC scale:

* **WFC** (whole compressed files) → 12-byte *extended Rabin* fingerprint,
* **SC** (8 KiB static chunks)     → 16-byte MD5,
* **CDC** (dynamic content chunks) → 20-byte SHA-1.

All fingerprinters implement :class:`repro.hashing.base.Fingerprinter` and
are discoverable by name through :func:`repro.hashing.base.get_hash`.
"""

from repro.hashing.base import (
    Fingerprinter,
    get_hash,
    register_hash,
    available_hashes,
    hash_for_digest_len,
)
from repro.hashing.rabin import (
    RabinFingerprinter,
    ExtendedRabinFingerprinter,
    POLY64,
    POLY32,
)
from repro.hashing.crypto import MD5Fingerprinter, SHA1Fingerprinter
from repro.hashing.collision import (
    collision_probability,
    required_bits,
    safe_for_dataset,
)

__all__ = [
    "Fingerprinter",
    "get_hash",
    "register_hash",
    "available_hashes",
    "hash_for_digest_len",
    "RabinFingerprinter",
    "ExtendedRabinFingerprinter",
    "POLY64",
    "POLY32",
    "MD5Fingerprinter",
    "SHA1Fingerprinter",
    "collision_probability",
    "required_bits",
    "safe_for_dataset",
]
