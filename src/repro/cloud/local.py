"""Directory-backed cloud backend.

Maps object keys to files under a root directory (slashes in keys become
subdirectories; path traversal is rejected).  This is the backend the
runnable examples use: a fully working "cloud" you can inspect with `ls`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, Optional

from repro.cloud.base import CloudBackend
from repro.errors import CloudError
from repro.util.io import TEMP_PREFIX, atomic_write_bytes

__all__ = ["LocalDirectoryBackend"]


class LocalDirectoryBackend(CloudBackend):
    """Object store rooted at a local directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if (not key or key.startswith("/")
                or key.rpartition("/")[2].startswith(TEMP_PREFIX)):
            raise CloudError(f"invalid object key {key!r}")
        path = (self.root / key).resolve()
        if not str(path).startswith(str(self.root.resolve()) + os.sep):
            raise CloudError(f"key escapes store root: {key!r}")
        return path

    def _put(self, key: str, data: bytes) -> None:
        atomic_write_bytes(self._path(key), data)

    def _get(self, key: str) -> Optional[bytes]:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            return None

    def _delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def _list(self, prefix: str) -> Iterator[str]:
        root = self.root.resolve()
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                # A PUT killed mid-write leaves its temp file behind;
                # it never became an object.
                if name.startswith(TEMP_PREFIX):
                    continue
                key = (Path(dirpath) / name).relative_to(root).as_posix()
                if key.startswith(prefix):
                    yield key
