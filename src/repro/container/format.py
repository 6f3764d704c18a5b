"""Binary container format: pack, parse, verify.

Layout (all integers big-endian)::

    +--------------------------------------------------------------+
    | header:  magic(8) version(2) container_id(8) flags(2)        |
    |          data_size(8) desc_count(4)                          |
    | data:    chunk bytes, in append order (chunk locality)       |
    | table:   desc_count fixed-width chunk descriptors            |
    | footer:  table_offset(8) crc32(4) magic(8)                   |
    +--------------------------------------------------------------+

The container may be padded with zeros between table and footer so the
blob reaches a fixed nominal size ("if a container is not full but needs
to be written ... it is padded out to its full size", Sec. III-F); the
footer always sits at the very end.  CRC-32 covers everything before the
crc field.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import List

from repro.errors import ContainerFormatError

__all__ = ["CONTAINER_MAGIC", "ChunkDescriptor", "ContainerWriter",
           "ContainerReader", "FLAG_TINY_FILE", "sealed_digest"]

CONTAINER_MAGIC = b"AACONT\x01\x00"
_HEADER = struct.Struct(">8sHQHQI")          # magic, ver, cid, flags, dsz, n
_DESC = struct.Struct(">B20sQIB")            # fp_len, fp, offset, length, flags
_FOOTER = struct.Struct(">QI8s")             # table_offset, crc, magic
VERSION = 1

#: Descriptor flag: the extent is a whole tiny file, not a dedup chunk.
FLAG_TINY_FILE = 0x01


def _crc(parts, table_offset: int) -> int:
    """CRC-32 of everything before the footer's crc field: ``parts``
    (the blob up to the footer, in order) then the table offset."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return zlib.crc32(_FOOTER.pack(table_offset, 0, CONTAINER_MAGIC)[:8],
                      crc)


def sealed_digest(blob: bytes) -> str:
    """SHA-1 of a sealed container's descriptor table and footer (whose
    CRC-32 covers every byte before it); any other blob is hashed whole."""
    if len(blob) < _HEADER.size + _FOOTER.size \
            or not blob.endswith(CONTAINER_MAGIC):
        return hashlib.sha1(blob).hexdigest()
    count = _HEADER.unpack_from(blob)[5]
    table_offset = _FOOTER.unpack_from(blob, len(blob) - _FOOTER.size)[0]
    digest = hashlib.sha1(blob[table_offset:table_offset + count * _DESC.size])
    digest.update(blob[-_FOOTER.size:])
    return digest.hexdigest()


@dataclass(frozen=True)
class ChunkDescriptor:
    """Metadata for one extent stored in a container."""

    fingerprint: bytes
    #: Offset of the extent within the container *data section*.
    offset: int
    length: int
    flags: int = 0

    def pack(self) -> bytes:
        """Fixed-width descriptor record."""
        return _DESC.pack(len(self.fingerprint),
                          self.fingerprint.ljust(20, b"\0"),
                          self.offset, self.length, self.flags)

    @classmethod
    def unpack(cls, blob: bytes) -> "ChunkDescriptor":
        """Inverse of :meth:`pack`."""
        fp_len, fp, offset, length, flags = _DESC.unpack(blob)
        return cls(fp[:fp_len], offset, length, flags)


class ContainerWriter:
    """Accumulates chunks for one container and serialises the blob.

    Not thread-safe; the :class:`~repro.container.manager.ContainerManager`
    owns one writer per backup stream.
    """

    def __init__(self, container_id: int, capacity: int) -> None:
        if capacity < _HEADER.size + _FOOTER.size + _DESC.size:
            raise ContainerFormatError("container capacity too small")
        self.container_id = container_id
        self.capacity = capacity
        self._data = bytearray()
        self._descs: List[ChunkDescriptor] = []

    # ------------------------------------------------------------------
    @property
    def data_size(self) -> int:
        """Bytes of chunk payload accumulated so far."""
        return len(self._data)

    @property
    def chunk_count(self) -> int:
        """Number of extents appended so far."""
        return len(self._descs)

    def occupancy(self) -> int:
        """Serialized size if sealed now (header+data+table+footer)."""
        return (_HEADER.size + len(self._data)
                + len(self._descs) * _DESC.size + _FOOTER.size)

    def fits(self, length: int) -> bool:
        """Would an extent of ``length`` bytes still fit within capacity?"""
        return self.occupancy() + length + _DESC.size <= self.capacity

    def append(self, fingerprint: bytes, data: bytes,
               flags: int = 0) -> int:
        """Append an extent; returns its offset inside the data section."""
        if not self.fits(len(data)):
            raise ContainerFormatError("container overflow")
        offset = len(self._data)
        self._data.extend(data)
        self._descs.append(ChunkDescriptor(fingerprint, offset,
                                           len(data), flags))
        return offset

    # ------------------------------------------------------------------
    def seal(self, pad_to_capacity: bool = True) -> bytes:
        """Serialise to the final blob (optionally padded to capacity)."""
        header = _HEADER.pack(CONTAINER_MAGIC, VERSION, self.container_id,
                              0, len(self._data), len(self._descs))
        table = b"".join(d.pack() for d in self._descs)
        table_offset = _HEADER.size + len(self._data)
        body_len = table_offset + len(table)
        total = (self.capacity if pad_to_capacity
                 else body_len + _FOOTER.size)
        pad_len = total - body_len - _FOOTER.size
        if pad_len < 0:
            raise ContainerFormatError("seal overflow (internal)")
        # One copy of the payload, into the blob itself: the CRC runs
        # over the parts rather than over a concatenated temporary.
        parts = [header, self._data, table, bytes(pad_len)]
        crc = _crc(parts, table_offset)
        parts.append(_FOOTER.pack(table_offset, crc, CONTAINER_MAGIC))
        return b"".join(parts)


class ContainerReader:
    """Parses and verifies a serialised container; random extent access."""

    def __init__(self, blob: bytes) -> None:
        if len(blob) < _HEADER.size + _FOOTER.size:
            raise ContainerFormatError("blob too small to be a container")
        magic, version, cid, _flags, data_size, desc_count = _HEADER.unpack(
            blob[:_HEADER.size])
        if magic != CONTAINER_MAGIC:
            raise ContainerFormatError("bad container magic")
        if version != VERSION:
            raise ContainerFormatError(f"unsupported version {version}")
        table_offset, crc, tail_magic = _FOOTER.unpack(blob[-_FOOTER.size:])
        if tail_magic != CONTAINER_MAGIC:
            raise ContainerFormatError("bad footer magic")
        expected = _crc([memoryview(blob)[:-_FOOTER.size]], table_offset)
        if crc != expected:
            raise ContainerFormatError("container CRC mismatch")
        if table_offset != _HEADER.size + data_size:
            raise ContainerFormatError("inconsistent table offset")
        self.container_id = cid
        self.data_size = data_size
        self._blob = blob
        self.descriptors: List[ChunkDescriptor] = []
        pos = table_offset
        for _ in range(desc_count):
            self.descriptors.append(
                ChunkDescriptor.unpack(blob[pos:pos + _DESC.size]))
            pos += _DESC.size

    def extent(self, desc: ChunkDescriptor) -> bytes:
        """Extent bytes for a descriptor (bounds-checked)."""
        start = _HEADER.size + desc.offset
        end = start + desc.length
        if desc.offset + desc.length > self.data_size:
            raise ContainerFormatError("descriptor beyond data section")
        return bytes(self._blob[start:end])

    def read_at(self, offset: int, length: int) -> bytes:
        """Extent bytes by raw (offset, length) within the data section."""
        if offset < 0 or offset + length > self.data_size:
            raise ContainerFormatError("read beyond data section")
        start = _HEADER.size + offset
        return bytes(self._blob[start:start + length])
