"""File recipes and session manifests.

A *recipe* describes how to reassemble one file from stored extents; a
*manifest* is the complete recipe set of one backup session plus its
metadata.  Manifests are JSON (debuggable, diff-able), stored both
locally and in the cloud — together with the self-describing containers
they make every session restorable with no other client state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import RestoreError

__all__ = ["ChunkRef", "FileEntry", "Manifest"]


@dataclass(frozen=True)
class ChunkRef:
    """Reference to one stored extent of a file.

    Either a container extent (``container_id >= 0`` with ``offset``) or
    a standalone cloud object (``object_key`` set) — the latter is used
    by baseline schemes that upload chunks/files without aggregation.

    When the chunk is convergently encrypted, ``wrapped_key`` carries
    its content key sealed under the client's master secret (see
    :mod:`repro.secure`); the stored fingerprint then refers to the
    ciphertext.

    A *delta* extent stores a copy/insert program instead of the chunk
    bytes: ``stored_length`` is the on-cloud size of the delta blob,
    ``delta_base`` the (possibly itself delta) reference whose bytes
    the program rebuilds against, and ``fingerprint``/``length`` still
    describe the reconstructed *target* chunk — so restore verification
    works unchanged after the chain is resolved.  Embedding the base
    chain keeps manifests self-contained: restore and GC need no index
    to resolve a delta, only the manifest.
    """

    fingerprint: bytes
    length: int
    container_id: int = -1
    offset: int = 0
    object_key: Optional[str] = None
    wrapped_key: Optional[bytes] = None
    stored_length: Optional[int] = None
    delta_base: Optional["ChunkRef"] = None

    def __post_init__(self) -> None:
        if (self.container_id < 0) == (self.object_key is None):
            raise RestoreError(
                "ChunkRef needs exactly one of container_id/object_key")
        if (self.delta_base is None) != (self.stored_length is None):
            raise RestoreError(
                "delta ChunkRef needs both delta_base and stored_length")

    @property
    def in_container(self) -> bool:
        """Whether this extent lives inside a container."""
        return self.container_id >= 0

    @property
    def is_delta(self) -> bool:
        """Whether the stored extent is a delta against a base chunk."""
        return self.delta_base is not None

    @property
    def cloud_length(self) -> int:
        """Bytes this extent occupies in cloud storage."""
        return self.stored_length if self.is_delta else self.length

    def chain_depth(self) -> int:
        """Delta hops until a full extent (0 for a non-delta ref)."""
        depth = 0
        ref = self
        while ref.delta_base is not None:
            depth += 1
            ref = ref.delta_base
        return depth

    def to_json(self) -> dict:
        """JSON-serialisable form."""
        doc = {"fp": self.fingerprint.hex(), "len": self.length}
        if self.in_container:
            doc["cid"] = self.container_id
            doc["off"] = self.offset
        else:
            doc["key"] = self.object_key
        if self.wrapped_key is not None:
            doc["ek"] = self.wrapped_key.hex()
        if self.is_delta:
            doc["slen"] = self.stored_length
            doc["base"] = self.delta_base.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ChunkRef":
        """Inverse of :meth:`to_json`."""
        ek = doc.get("ek")
        base = doc.get("base")
        slen = doc.get("slen")
        return cls(fingerprint=bytes.fromhex(doc["fp"]),
                   length=int(doc["len"]),
                   container_id=int(doc.get("cid", -1)),
                   offset=int(doc.get("off", 0)),
                   object_key=doc.get("key"),
                   wrapped_key=bytes.fromhex(ek) if ek else None,
                   stored_length=int(slen) if slen is not None else None,
                   delta_base=cls.from_json(base) if base else None)


@dataclass
class FileEntry:
    """Manifest record for one backed-up file."""

    path: str
    size: int
    mtime_ns: int
    app: str
    category: str
    #: Ordered extents whose concatenation is the file content.
    refs: List[ChunkRef] = field(default_factory=list)
    #: True when the file bypassed dedup via the tiny-file filter.
    tiny: bool = False

    def to_json(self) -> dict:
        """JSON-serialisable form."""
        return {"path": self.path, "size": self.size,
                "mtime_ns": self.mtime_ns, "app": self.app,
                "category": self.category, "tiny": self.tiny,
                "refs": [r.to_json() for r in self.refs]}

    @classmethod
    def from_json(cls, doc: dict) -> "FileEntry":
        """Inverse of :meth:`to_json`."""
        return cls(path=doc["path"], size=int(doc["size"]),
                   mtime_ns=int(doc["mtime_ns"]), app=doc["app"],
                   category=doc["category"], tiny=bool(doc["tiny"]),
                   refs=[ChunkRef.from_json(r) for r in doc["refs"]])


class Manifest:
    """All file recipes of one backup session."""

    FORMAT = 1

    def __init__(self, session_id: int, scheme: str,
                 created: float = 0.0) -> None:
        self.session_id = session_id
        self.scheme = scheme
        self.created = created
        self._files: Dict[str, FileEntry] = {}

    # ------------------------------------------------------------------
    def add(self, entry: FileEntry) -> None:
        """Record ``entry`` (one per path; duplicates are an error)."""
        if entry.path in self._files:
            raise RestoreError(f"duplicate manifest path {entry.path!r}")
        self._files[entry.path] = entry

    def get(self, path: str) -> Optional[FileEntry]:
        """Entry for ``path`` or ``None``."""
        return self._files.get(path)

    def __iter__(self) -> Iterator[FileEntry]:
        for path in sorted(self._files):
            yield self._files[path]

    def __len__(self) -> int:
        return len(self._files)

    def total_bytes(self) -> int:
        """Logical dataset size covered by this manifest."""
        return sum(e.size for e in self._files.values())

    def iter_refs(self) -> Iterator[ChunkRef]:
        """Every extent reference of every recipe, delta bases included.

        Delta bases count as references: a base is needed (and must stay
        live) for as long as any retained delta rebuilds against it, so
        GC liveness and scrub resolution both walk this iterator rather
        than the top-level refs alone.
        """
        for entry in self._files.values():
            for ref in entry.refs:
                while ref is not None:
                    yield ref
                    ref = ref.delta_base

    def referenced_containers(self) -> set[int]:
        """Container ids any recipe points into (GC liveness input)."""
        return {r.container_id for r in self.iter_refs() if r.in_container}

    def referenced_objects(self) -> set[str]:
        """Standalone object keys any recipe references."""
        return {r.object_key for r in self.iter_refs()
                if not r.in_container}

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise to a JSON document string."""
        return json.dumps({
            "format": self.FORMAT,
            "session": self.session_id,
            "scheme": self.scheme,
            "created": self.created,
            "files": [e.to_json() for e in self],
        }, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str | bytes) -> "Manifest":
        """Parse a manifest previously produced by :meth:`to_json`;
        any malformed document raises :class:`RestoreError`."""
        try:
            doc = json.loads(text)
            if doc.get("format") != cls.FORMAT:
                raise RestoreError(f"unsupported manifest format "
                                   f"{doc.get('format')!r}")
            manifest = cls(session_id=int(doc["session"]),
                           scheme=doc["scheme"],
                           created=float(doc["created"]))
            for entry in doc["files"]:
                manifest.add(FileEntry.from_json(entry))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise RestoreError(f"malformed manifest: "
                               f"{type(exc).__name__}: {exc}") from exc
        return manifest
