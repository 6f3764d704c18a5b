"""Tests for the container format and the open-container manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container import (
    ChunkDescriptor,
    ContainerManager,
    ContainerReader,
    ContainerWriter,
)
from repro.container.format import FLAG_TINY_FILE, _HEADER, _FOOTER
from repro.errors import ContainerError, ContainerFormatError
from repro.util.units import KIB, MIB


def fp(tag: bytes) -> bytes:
    return tag.ljust(20, b"\x7f")


class TestContainerFormat:
    def test_roundtrip(self):
        w = ContainerWriter(container_id=3, capacity=64 * KIB)
        w.append(fp(b"a"), b"alpha-data")
        w.append(fp(b"b"), b"beta-data", flags=FLAG_TINY_FILE)
        blob = w.seal()
        assert len(blob) == 64 * KIB  # padded
        r = ContainerReader(blob)
        assert r.container_id == 3
        assert [(d.fingerprint, r.extent(d)) for d in r.descriptors] == [
            (fp(b"a"), b"alpha-data"), (fp(b"b"), b"beta-data")]
        assert r.descriptors[1].flags == FLAG_TINY_FILE

    def test_unpadded_seal(self):
        w = ContainerWriter(1, capacity=64 * KIB)
        w.append(fp(b"x"), b"tiny")
        blob = w.seal(pad_to_capacity=False)
        assert len(blob) < 1024
        r = ContainerReader(blob)
        assert [(d.fingerprint, r.extent(d)) for d in r.descriptors] == [
            (fp(b"x"), b"tiny")]

    def test_missing_fingerprint(self):
        w = ContainerWriter(1, capacity=8 * KIB)
        w.append(fp(b"x"), b"data")
        assert fp(b"nope") not in {
            d.fingerprint for d in ContainerReader(w.seal()).descriptors}

    def test_read_at(self):
        w = ContainerWriter(1, capacity=8 * KIB)
        off = w.append(fp(b"x"), b"0123456789")
        r = ContainerReader(w.seal())
        assert r.read_at(off + 2, 3) == b"234"
        with pytest.raises(ContainerFormatError):
            r.read_at(5, 100)

    def test_corruption_detected(self):
        w = ContainerWriter(1, capacity=8 * KIB)
        w.append(fp(b"x"), b"payload-bytes")
        blob = bytearray(w.seal())
        blob[_HEADER.size + 2] ^= 0xFF  # flip a payload bit
        with pytest.raises(ContainerFormatError):
            ContainerReader(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(ContainerFormatError):
            ContainerReader(b"NOTMAGIC" + b"\0" * 100)

    def test_too_small(self):
        with pytest.raises(ContainerFormatError):
            ContainerReader(b"\0" * 8)

    def test_overflow_rejected(self):
        w = ContainerWriter(1, capacity=4 * KIB)
        with pytest.raises(ContainerFormatError):
            w.append(fp(b"x"), b"z" * (8 * KIB))

    def test_fits_accounts_for_descriptor(self):
        w = ContainerWriter(1, capacity=4 * KIB)
        payload = 4 * KIB - _HEADER.size - _FOOTER.size - 100
        assert w.fits(payload)
        assert not w.fits(4 * KIB)

    def test_descriptor_roundtrip(self):
        d = ChunkDescriptor(fp(b"q")[:12], offset=77, length=5, flags=1)
        assert ChunkDescriptor.unpack(d.pack()) == d

    @given(st.lists(st.binary(min_size=1, max_size=500), min_size=1,
                    max_size=20))
    @settings(max_examples=25)
    def test_property_roundtrip_many_chunks(self, payloads):
        w = ContainerWriter(9, capacity=1 * MIB)
        fps = []
        for i, payload in enumerate(payloads):
            key = fp(str(i).encode())
            fps.append((key, payload))
            w.append(key, payload)
        r = ContainerReader(w.seal())
        assert [(d.fingerprint, r.extent(d)) for d in r.descriptors] == fps


class TestContainerManager:
    def _manager(self, size=16 * KIB, **kw):
        uploads = {}

        def upload(cid, blob):
            uploads[cid] = blob

        return ContainerManager(upload, container_size=size, **kw), uploads

    def test_location_is_immediately_valid(self):
        mgr, uploads = self._manager()
        loc = mgr.add(fp(b"a"), b"hello")
        mgr.flush()
        reader = ContainerReader(uploads[loc.container_id])
        assert reader.read_at(loc.offset, loc.length) == b"hello"

    def test_fill_seals_and_opens_new(self):
        mgr, uploads = self._manager(size=8 * KIB)
        locs = [mgr.add(fp(str(i).encode()), bytes(2 * KIB))
                for i in range(8)]
        mgr.flush()
        assert len(uploads) >= 2
        cids = {loc.container_id for loc in locs}
        assert cids == set(uploads)

    def test_padding_on_flush(self):
        mgr, uploads = self._manager(size=8 * KIB)
        mgr.add(fp(b"a"), b"small")
        mgr.flush()
        (blob,) = uploads.values()
        assert len(blob) == 8 * KIB
        assert mgr.stats.bytes_padding > 0

    def test_no_padding_option(self):
        mgr, uploads = self._manager(size=8 * KIB, pad_containers=False)
        mgr.add(fp(b"a"), b"small")
        mgr.flush()
        (blob,) = uploads.values()
        assert len(blob) < 8 * KIB

    def test_oversized_chunk_dedicated_container(self):
        mgr, uploads = self._manager(size=8 * KIB)
        big = bytes(64 * KIB)
        loc = mgr.add(fp(b"big"), big)
        assert mgr.stats.oversized == 1
        reader = ContainerReader(uploads[loc.container_id])
        assert reader.read_at(loc.offset, loc.length) == big

    def test_streams_are_separate(self):
        mgr, uploads = self._manager()
        a = mgr.add(fp(b"a"), b"one", stream="s1")
        b = mgr.add(fp(b"b"), b"two", stream="s2")
        assert a.container_id != b.container_id
        mgr.flush("s1")
        assert list(uploads) == [a.container_id]
        mgr.flush()
        assert len(uploads) == 2

    def test_tiny_file_counted(self):
        mgr, _ = self._manager()
        mgr.add(fp(b"t"), b"tiny!", tiny_file=True)
        assert mgr.stats.tiny_files_packed == 1

    def test_empty_flush_noop(self):
        mgr, uploads = self._manager()
        mgr.flush()
        assert uploads == {}
        assert mgr.stats.sealed == 0

    def test_chunk_locality_preserved(self):
        # Chunks appear in the container in arrival order.
        mgr, uploads = self._manager()
        order = [fp(str(i).encode()) for i in range(5)]
        for key in order:
            mgr.add(key, b"x" * 100)
        mgr.flush()
        (blob,) = uploads.values()
        reader = ContainerReader(blob)
        assert [d.fingerprint for d in reader.descriptors] == order

    def test_container_size_validation(self):
        with pytest.raises(ContainerError):
            ContainerManager(lambda c, b: None, container_size=100)

    def test_upload_bytes_accounting(self):
        mgr, uploads = self._manager(size=8 * KIB)
        mgr.add(fp(b"a"), bytes(3 * KIB))
        mgr.flush()
        assert mgr.stats.bytes_uploaded == sum(len(b)
                                               for b in uploads.values())
        assert mgr.stats.bytes_payload == 3 * KIB
