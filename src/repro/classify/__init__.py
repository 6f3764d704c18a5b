"""Application awareness: file-type classification and per-type policy.

This package encodes the paper's central idea — treating applications
differently — as data:

* :mod:`repro.classify.filetype` — the registry of application types
  (the 12 evaluated apps plus common extras) and their category:
  *compressed*, *static uncompressed*, or *dynamic uncompressed*;
* :mod:`repro.classify.policy` — the Fig. 6 policy table mapping category
  → (chunking method, fingerprint hash).
"""

from repro.classify.filetype import (
    Category,
    AppType,
    classify_path,
    classify_name,
    app_for_extension,
    register_app_type,
    known_app_types,
    UNKNOWN,
)
from repro.classify.policy import (
    DedupPolicy,
    AA_POLICY_TABLE,
)

__all__ = [
    "Category",
    "AppType",
    "classify_path",
    "classify_name",
    "app_for_extension",
    "register_app_type",
    "known_app_types",
    "UNKNOWN",
    "DedupPolicy",
    "AA_POLICY_TABLE",
]
