"""Backup sources: where the bytes to back up come from.

A *source* is an ordered collection of :class:`SourceFile` records, each
able to produce its content bytes on demand.  Two concrete sources:

* :class:`DirectorySource` — a real directory tree (the deployable path);
* :class:`MemorySource` — an in-memory snapshot, used by the synthetic
  workload generator and the tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, Mapping

from repro.util.io import walk_files

__all__ = ["SourceFile", "DirectorySource", "MemorySource"]


@dataclass(frozen=True)
class SourceFile:
    """One file offered for backup.

    ``path`` is the logical (store-relative) path; ``reader`` returns the
    file's full content.  Content is read lazily and exactly once per
    backup so large datasets stream through the pipeline.
    """

    path: str
    size: int
    mtime_ns: int
    reader: Callable[[], bytes] = field(repr=False)

    def read(self) -> bytes:
        """Return the file's bytes."""
        return self.reader()


class DirectorySource:
    """All regular files under a root directory, in sorted path order."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def __iter__(self) -> Iterator[SourceFile]:
        for stat in walk_files(self.root):
            yield SourceFile(
                path=stat.relpath,
                size=stat.size,
                mtime_ns=stat.mtime_ns,
                reader=lambda p=stat.path: p.read_bytes(),
            )


class MemorySource:
    """An in-memory snapshot: ``{path: bytes}`` (+ optional mtimes).

    Used to drive the engine from the synthetic workload generator
    without touching disk; iteration order is sorted by path for
    determinism.
    """

    def __init__(self, files: Mapping[str, bytes],
                 mtimes: Mapping[str, int] | None = None) -> None:
        self._files: Dict[str, bytes] = dict(files)
        self._mtimes: Dict[str, int] = dict(mtimes or {})

    def __iter__(self) -> Iterator[SourceFile]:
        for path in sorted(self._files):
            data = self._files[path]
            yield SourceFile(
                path=path,
                size=len(data),
                mtime_ns=self._mtimes.get(path, 0),
                reader=lambda d=data: d,
            )
