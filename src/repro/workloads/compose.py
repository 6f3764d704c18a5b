"""Files as compositions of content blocks.

A *block* is an immutable pseudo-content unit identified by a 64-bit id;
a file is an ordered list of :class:`Extent` records, each referencing a
byte range of one block.  Two extents with equal ``(block, start,
length)`` denote identical bytes — that single invariant lets:

* the **bytes layer** materialise any extent deterministically
  (:func:`repro.workloads.materialize.block_bytes`), and
* the **trace layer** decide chunk identity symbolically at paper scale
  (:mod:`repro.trace.simchunk`),

so both engines observe the *same* redundancy structure.

Block ids carry their CDC *density class* in the low bits (see
:data:`DENSITY_SHIFT`): boundary positions inside a block must be a pure
function of the block id for the content-defined property to hold, and
the class encodes how boundary-rich the simulated content is (dense for
text-like data, sparse for VM-image-like data — the Observation-3
forced-cut effect).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import WorkloadError

__all__ = ["Extent", "Composition", "Snapshot", "make_block_id",
           "density_class_of", "DENSITY_SHIFT"]

#: Low bits of a block id encode its CDC boundary-density class.
DENSITY_SHIFT = 3
_DENSITY_MASK = (1 << DENSITY_SHIFT) - 1


def make_block_id(counter: int, density_class: int) -> int:
    """Allocate a block id embedding ``density_class`` (0–7)."""
    if not (0 <= density_class <= _DENSITY_MASK):
        raise WorkloadError(f"density class {density_class} out of range")
    return (counter << DENSITY_SHIFT) | density_class


def density_class_of(block_id: int) -> int:
    """Recover the density class from a block id."""
    return block_id & _DENSITY_MASK


@dataclass(frozen=True)
class Extent:
    """``length`` bytes of block ``block`` starting at ``start``."""

    block: int
    start: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0 or self.start < 0:
            raise WorkloadError(f"invalid extent {self!r}")


class Composition:
    """Immutable extent list with O(log n) offset addressing.

    Mutation helpers return new compositions; snapshots therefore share
    structure for unchanged files, which keeps 10 weekly paper-scale
    snapshots cheap to hold simultaneously.
    """

    __slots__ = ("extents", "_offsets", "size")

    def __init__(self, extents: Iterable[Extent]) -> None:
        self.extents: Tuple[Extent, ...] = tuple(extents)
        offsets: List[int] = []
        pos = 0
        for ext in self.extents:
            offsets.append(pos)
            pos += ext.length
        #: extent start offsets within the file (parallel to ``extents``).
        self._offsets = offsets
        self.size = pos

    # ------------------------------------------------------------------
    def slice(self, offset: int, length: int) -> List[Extent]:
        """Extents covering ``[offset, offset+length)`` (content-exact).

        The returned extents are normalised to block coordinates, so two
        identical byte ranges anywhere in any file slice to equal lists —
        the property chunk identity rests on.
        """
        if offset < 0 or length < 0 or offset + length > self.size:
            raise WorkloadError(
                f"slice [{offset}, {offset + length}) outside file "
                f"of size {self.size}")
        out: List[Extent] = []
        if length == 0:
            return out
        i = bisect_right(self._offsets, offset) - 1
        remaining = length
        pos = offset
        while remaining > 0:
            ext = self.extents[i]
            ext_off = self._offsets[i]
            skip = pos - ext_off
            take = min(ext.length - skip, remaining)
            out.append(Extent(ext.block, ext.start + skip, take))
            remaining -= take
            pos += take
            i += 1
        return out

    def splice(self, offset: int, remove_length: int,
               insert: Iterable[Extent]) -> "Composition":
        """Replace ``remove_length`` bytes at ``offset`` with ``insert``."""
        if offset < 0 or remove_length < 0 or \
                offset + remove_length > self.size:
            raise WorkloadError("splice range outside file")
        head = self.slice(0, offset)
        tail_start = offset + remove_length
        tail = self.slice(tail_start, self.size - tail_start)
        return Composition([*head, *insert, *tail])

    def append(self, insert: Iterable[Extent]) -> "Composition":
        """Append extents at end of file."""
        return Composition([*self.extents, *insert])

    def splice_many(self, edits: List[Tuple[int, int, List[Extent]]]
                    ) -> "Composition":
        """Apply many non-overlapping ``(offset, remove_len, insert)``
        edits in one pass (offsets refer to the *original* file).

        Used for the VM-image mutation model, where a week rewrites
        hundreds of aligned ranges — applying them one splice at a time
        would be quadratic.
        """
        if not edits:
            return self
        edits = sorted(edits, key=lambda e: e[0])
        out: List[Extent] = []
        pos = 0
        for offset, remove_len, insert in edits:
            if offset < pos:
                raise WorkloadError("splice_many edits overlap")
            if offset + remove_len > self.size:
                raise WorkloadError("splice_many edit outside file")
            out.extend(self.slice(pos, offset - pos))
            out.extend(insert)
            pos = offset + remove_len
        out.extend(self.slice(pos, self.size - pos))
        return Composition(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Composition)
                and self.extents == other.extents)

    def __hash__(self) -> int:
        return hash(self.extents)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Composition size={self.size} extents={len(self.extents)}>"


class Snapshot:
    """One weekly state of the synthetic file tree."""

    def __init__(self, session: int,
                 files: Dict[str, Composition] | None = None,
                 mtimes: Dict[str, int] | None = None) -> None:
        self.session = session
        self.files: Dict[str, Composition] = dict(files or {})
        #: Logical modification stamps; bumped whenever content changes
        #: (drives metadata-based incremental detection).
        self.mtimes: Dict[str, int] = dict(mtimes or {})

    def set(self, path: str, comp: Composition, mtime: int) -> None:
        """Insert/replace a file."""
        self.files[path] = comp
        self.mtimes[path] = mtime

    def remove(self, path: str) -> None:
        """Delete a file."""
        self.files.pop(path, None)
        self.mtimes.pop(path, None)

    def total_bytes(self) -> int:
        """Dataset size DS of this snapshot."""
        return sum(c.size for c in self.files.values())

    def __len__(self) -> int:
        return len(self.files)

    def copy(self, session: int) -> "Snapshot":
        """Shallow copy for the next week (compositions are shared)."""
        return Snapshot(session, self.files, self.mtimes)
