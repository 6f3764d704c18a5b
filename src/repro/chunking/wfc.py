"""Whole-File Chunking (WFC).

The degenerate chunking used for *compressed* application data (AVI, MP3,
RAR, JPG, DMG, ISO): Observation 1 shows such files have almost no
sub-file redundancy (Table 1 DR ≈ 1.000–1.009), so the entire file is the
duplicate-detection unit and a cheap 12-byte extended Rabin hash suffices
as its fingerprint.
"""

from __future__ import annotations

from typing import List

from repro.chunking.base import Chunker

__all__ = ["WholeFileChunker"]


class WholeFileChunker(Chunker):
    """Emit the whole buffer as a single chunk."""

    name = "wfc"

    def cut_points(self, data: bytes) -> List[int]:
        """One cut at end-of-file."""
        return [len(data)] if data else []
