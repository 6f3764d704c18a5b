"""Filesystem helpers: atomic writes, directory walking, safe paths.

The backup client persists indices, manifests and containers; all on-disk
state is written atomically (write to a temp file in the same directory,
then :func:`os.replace`) so a crash can never leave a torn file — the same
discipline real backup tools use.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = ["atomic_write_bytes", "atomic_write_text", "walk_files", "FileStat",
           "TEMP_PREFIX"]

#: Name prefix of :func:`atomic_write_bytes`'s in-flight temp files.  A
#: write killed before its rename leaves one behind; directory walkers
#: that must not mistake it for content (the local object store's
#: ``list``) skip names that start with it.
TEMP_PREFIX = ".tmp-"


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    The temp file is created in the destination directory so the final
    :func:`os.replace` is a same-filesystem rename (atomic on POSIX).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{TEMP_PREFIX}{path.name}.",
                               dir=str(path.parent))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str,
                      encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text`` (see
    :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))


@dataclass(frozen=True)
class FileStat:
    """Lightweight stat record for a regular file discovered by
    :func:`walk_files`."""

    path: Path
    #: Path relative to the walk root, with ``/`` separators.
    relpath: str
    size: int
    mtime_ns: int


def walk_files(root: str | os.PathLike) -> Iterator[FileStat]:
    """Yield :class:`FileStat` for every regular file under ``root``.

    Files are yielded in sorted order (deterministic across runs, which
    keeps backup manifests and dedup statistics reproducible).  Symbolic
    links are skipped; unreadable entries are silently skipped, as a
    backup client must tolerate them.
    """
    root = Path(root)
    stack = [root]
    while stack:
        directory = stack.pop()
        try:
            entries = sorted(os.scandir(directory), key=lambda e: e.name)
        except OSError:
            continue
        # Push directories in reverse so pop() preserves sorted DFS order.
        for entry in reversed(entries):
            if entry.is_dir(follow_symlinks=False):
                stack.append(Path(entry.path))
        for entry in entries:
            try:
                if not entry.is_file(follow_symlinks=False):
                    continue
                st = entry.stat(follow_symlinks=False)
            except OSError:
                continue
            rel = Path(entry.path).relative_to(root).as_posix()
            yield FileStat(path=Path(entry.path), relpath=rel,
                           size=st.st_size, mtime_ns=st.st_mtime_ns)
