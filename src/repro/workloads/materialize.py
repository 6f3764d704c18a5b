"""Deterministic block → bytes materialisation.

Every block id defines an infinite pseudo-random byte stream (seekable:
a Philox counter RNG keyed by the block id), so any
:class:`~repro.workloads.compose.Extent` can be materialised on demand
and two equal extents always produce equal bytes — the bridge between
the composition model and the real-bytes engine.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.source import MemorySource
from repro.workloads.compose import Composition, Snapshot

__all__ = [
    "block_bytes",
    "materialize_composition",
    "materialize_snapshot",
    "snapshot_to_memory_source",
    "write_snapshot_to_directory",
]

_PHILOX_BYTES_PER_STEP = 32  # one Philox counter step yields 4 × u64


def block_bytes(block_id: int, start: int, length: int) -> bytes:
    """Bytes ``[start, start+length)`` of block ``block_id``'s stream.

    Seekable: the Philox counter is advanced to the containing 32-byte
    step, so late ranges of huge blocks cost O(length), not O(start).
    """
    if length <= 0:
        return b""
    step = start // _PHILOX_BYTES_PER_STEP
    skip = start - step * _PHILOX_BYTES_PER_STEP
    bitgen = np.random.Philox(key=block_id)
    if step:
        bitgen.advance(step)
    raw = np.random.Generator(bitgen).bytes(skip + length)
    return raw[skip:skip + length]


def materialize_composition(comp: Composition) -> bytes:
    """Concatenate the bytes of every extent of ``comp``."""
    return b"".join(block_bytes(e.block, e.start, e.length)
                    for e in comp.extents)


def materialize_snapshot(snap: Snapshot) -> Dict[str, bytes]:
    """Materialise every file of a snapshot into a path → bytes dict."""
    return {path: materialize_composition(comp)
            for path, comp in snap.files.items()}


def snapshot_to_memory_source(snap: Snapshot) -> MemorySource:
    """Wrap a snapshot as a lazy :class:`~repro.core.source.MemorySource`.

    Content is materialised per file at read time, so the backup engine
    streams the dataset without holding it all in memory.
    """
    files = {path: comp for path, comp in snap.files.items()}

    class _LazySource(MemorySource):
        def __init__(self) -> None:  # bypass dict-of-bytes init
            self._files = files
            self._mtimes = dict(snap.mtimes)

        def __iter__(self):
            from repro.core.source import SourceFile
            for path in sorted(self._files):
                comp = self._files[path]
                yield SourceFile(
                    path=path, size=comp.size,
                    mtime_ns=self._mtimes.get(path, 0),
                    reader=lambda c=comp: materialize_composition(c))

    return _LazySource()


def write_snapshot_to_directory(snap: Snapshot,
                                root: str | os.PathLike) -> int:
    """Write a snapshot as a real file tree; returns bytes written."""
    root = Path(root)
    total = 0
    for path, comp in snap.files.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        data = materialize_composition(comp)
        target.write_bytes(data)
        total += len(data)
    return total
