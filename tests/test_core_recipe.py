"""Tests for recipes/manifests and cloud key naming."""

import pytest

from repro.core import naming
from repro.core.recipe import ChunkRef, FileEntry, Manifest
from repro.errors import RestoreError


def cref(i: int, container: bool = True) -> ChunkRef:
    fp = bytes([i]) * 20
    if container:
        return ChunkRef(fingerprint=fp, length=100 + i, container_id=i,
                        offset=i * 10)
    return ChunkRef(fingerprint=fp, length=100 + i,
                    object_key=f"chunks/{fp.hex()}")


class TestChunkRef:
    def test_container_ref_roundtrip(self):
        ref = cref(3)
        assert ChunkRef.from_json(ref.to_json()) == ref
        assert ref.in_container

    def test_object_ref_roundtrip(self):
        ref = cref(4, container=False)
        assert ChunkRef.from_json(ref.to_json()) == ref
        assert not ref.in_container

    def test_must_have_exactly_one_locator(self):
        with pytest.raises(RestoreError):
            ChunkRef(fingerprint=b"x" * 20, length=10)
        with pytest.raises(RestoreError):
            ChunkRef(fingerprint=b"x" * 20, length=10, container_id=1,
                     object_key="k")


class TestManifest:
    def make(self) -> Manifest:
        m = Manifest(session_id=7, scheme="AA-Dedupe", created=123.5)
        m.add(FileEntry(path="a/b.doc", size=200, mtime_ns=1, app="doc",
                        category="dynamic_uncompressed",
                        refs=[cref(1), cref(2, container=False)]))
        m.add(FileEntry(path="t.txt", size=5, mtime_ns=2, app="txt",
                        category="dynamic_uncompressed", refs=[cref(3)],
                        tiny=True))
        return m

    def test_json_roundtrip(self):
        m = self.make()
        clone = Manifest.from_json(m.to_json())
        assert clone.session_id == 7 and clone.scheme == "AA-Dedupe"
        assert len(clone) == 2
        entry = clone.get("a/b.doc")
        assert entry.refs == m.get("a/b.doc").refs
        assert clone.get("t.txt").tiny

    def test_duplicate_path_rejected(self):
        m = self.make()
        with pytest.raises(RestoreError):
            m.add(FileEntry(path="t.txt", size=1, mtime_ns=0, app="txt",
                            category="dynamic_uncompressed"))

    def test_iteration_sorted(self):
        assert [e.path for e in self.make()] == ["a/b.doc", "t.txt"]

    def test_totals_and_references(self):
        m = self.make()
        assert m.total_bytes() == 205
        assert m.referenced_containers() == {1, 3}
        assert m.referenced_objects() == {cref(2, container=False).object_key}

    def test_bad_format_rejected(self):
        with pytest.raises(RestoreError):
            Manifest.from_json('{"format": 99, "session": 1, '
                               '"scheme": "x", "created": 0, "files": []}')

    def test_get_missing(self):
        assert self.make().get("nope") is None


class TestNaming:
    def test_container_key(self):
        assert naming.container_key(5) == "containers/0000000005"

    def test_chunk_key(self):
        assert naming.chunk_key(b"\xab\xcd") == "chunks/abcd"

    def test_file_key_deterministic_and_safe(self):
        k1 = naming.file_key(3, "weird/../path with spaces")
        k2 = naming.file_key(3, "weird/../path with spaces")
        assert k1 == k2
        assert k1.startswith("files/000003/")
        assert "/../" not in k1[6:]

    def test_manifest_key(self):
        assert naming.manifest_key(12) == "manifests/session-000012.json"
