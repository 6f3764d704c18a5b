"""Chunking substrate: the paper's three methods plus the fast family.

The paper's intelligent chunker picks between three methods:

* :class:`~repro.chunking.wfc.WholeFileChunker` — WFC, one chunk per file
  (used for compressed application data);
* :class:`~repro.chunking.static.StaticChunker` — SC, fixed 8 KiB chunks
  (static uncompressed data / VM images);
* :class:`~repro.chunking.cdc.RabinCDC` — content-defined chunking with a
  48-byte Rabin window, 8 KiB expected / 2 KiB min / 16 KiB max
  (dynamic uncompressed data).

Rabin stays the paper-faithful CDC default, but the CDC slot is a
*family* (see docs/CHUNKING.md): :class:`~repro.chunking.gear.GearCDC`
(add-shift-gather gear hash), :class:`~repro.chunking.gear.FastCDC`
(gear + normalized chunking) and :class:`~repro.chunking.seqcdc.SeqCDC`
(hash-less ascending-run detection) are drop-in boundary engines with
the same 2/8/16 KiB geometry, each with one vectorised slab scan
(differential-tested against per-byte references kept with the tests).

All implement :class:`~repro.chunking.base.Chunker`.  Scheme policies
name them through :func:`repro.classify.policy.make_chunker`.
"""

from repro.chunking.base import Chunk, Chunker
from repro.chunking.wfc import WholeFileChunker
from repro.chunking.static import StaticChunker
from repro.chunking.cdc import ContentDefinedChunker, RabinCDC
from repro.chunking.gear import FastCDC, GearCDC
from repro.chunking.seqcdc import SeqCDC

#: Policy names of the content-defined family — every member accepts the
#: ``avg_size``/``min_size``/``max_size`` geometry and may stand in for
#: Rabin wherever a policy says "CDC" (trace model, CLI
#: ``--chunker``).  Rabin ("cdc") is the paper-faithful default.
CDC_FAMILY = ("cdc", "gear", "fastcdc", "seqcdc")

__all__ = [
    "Chunk",
    "Chunker",
    "ContentDefinedChunker",
    "WholeFileChunker",
    "StaticChunker",
    "RabinCDC",
    "GearCDC",
    "FastCDC",
    "SeqCDC",
    "CDC_FAMILY",
]
