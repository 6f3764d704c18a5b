"""Tests for restore verification, directory restore, GC and resuming
the index from the manifests."""

import dataclasses
import json
import random
import tempfile
import tracemalloc

import numpy as np
import pytest

from repro.cloud import InMemoryBackend, LocalDirectoryBackend
from repro.core import (
    BackupClient,
    DirectorySource,
    Manifest,
    MemorySource,
    RestoreClient,
    aa_dedupe_config,
    collect_garbage,
    restore_session,
)
from repro.core import naming
from repro.core.scrub import scrub_cloud
from repro.errors import (IntegrityError, ObjectNotFound, RestoreError,
                          TransientCloudError)
from repro.obs.tracer import Tracer
from repro.simulate.clock import VirtualClock
from repro.util.units import KIB, MIB


@pytest.fixture()
def backed_up(rng):
    return _backed_up(rng)


def _backed_up(rng):
    def blob(n):
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    files = {
        "a/song.mp3": blob(40_000),
        "b/doc.doc": blob(30_000),
        "b/tiny.txt": blob(100),
        "c/vm.vmdk": blob(50_000),
    }
    cloud = InMemoryBackend()
    client = BackupClient(cloud, aa_dedupe_config(container_size=32 * KIB))
    client.backup(MemorySource(files))
    files2 = dict(files)
    files2["b/doc.doc"] = files["b/doc.doc"] + blob(4_000)
    client.backup(MemorySource(files2))
    return cloud, client, files, files2


class TestRestore:
    def test_selective_restore(self, backed_up):
        cloud, _c, files, _f2 = backed_up
        out, report = RestoreClient(cloud).restore_to_memory(
            0, paths=["b/doc.doc"])
        assert out == {"b/doc.doc": files["b/doc.doc"]}
        assert report.files_restored == 1

    def test_selective_restore_missing_path(self, backed_up):
        # A bad selection fails while planning, before any container GET.
        cloud = backed_up[0]
        before = cloud.stats.get_requests
        with pytest.raises(RestoreError, match="paths not in session"):
            RestoreClient(cloud).restore_to_memory(
                0, paths=["b/doc.doc", "ghost.txt"])
        assert cloud.stats.get_requests - before == 1  # the manifest only

    def test_restore_to_directory(self, backed_up, tmp_path):
        cloud, _c, files, _ = backed_up
        report = restore_session(cloud, 0, tmp_path / "out")
        assert report.files_restored == len(files)
        for path, data in files.items():
            assert (tmp_path / "out" / path).read_bytes() == data

    def test_missing_session(self, backed_up):
        with pytest.raises(ObjectNotFound):
            RestoreClient(backed_up[0]).restore_to_memory(99)

    def test_verification_detects_corruption(self, backed_up):
        cloud, client, _f, _f2 = backed_up
        # Corrupt one byte of a standalone... all data is in containers;
        # corrupt a container payload byte directly in the dict.
        key = cloud.list(naming.CONTAINER_PREFIX)[0]
        blob = bytearray(cloud._objects[key])
        blob[40] ^= 0xFF  # inside the data section
        cloud._objects[key] = bytes(blob)
        with pytest.raises(IntegrityError):
            RestoreClient(cloud).restore_to_memory(0)

    def test_verification_skippable(self, backed_up):
        cloud = backed_up[0]
        out, report = RestoreClient(cloud, verify=False).restore_to_memory(0)
        assert report.chunks_verified == 0
        assert len(out) == 4

    def test_container_cache_bounds_fetches(self, backed_up):
        cloud = backed_up[0]
        manifest = Manifest.from_json(cloud.get(naming.manifest_key(1)))
        containers = len(manifest.referenced_containers())
        before = cloud.stats.get_requests
        _out, report = RestoreClient(cloud).restore_to_memory(1)
        # The manifest, then exactly one fetch per referenced container.
        assert cloud.stats.get_requests - before == containers + 1
        assert report.containers_fetched == containers

    def test_chunks_verified_counted(self, backed_up):
        cloud = backed_up[0]
        _out, report = RestoreClient(cloud).restore_to_memory(0)
        assert report.chunks_verified >= 4

    def test_selection_fetches_only_its_containers(self, backed_up):
        cloud = backed_up[0]
        manifest = Manifest.from_json(cloud.get(naming.manifest_key(1)))
        want = {ref.container_id
                for ref in manifest.get("b/doc.doc").refs}
        assert want < manifest.referenced_containers()
        tracer = Tracer(clock=VirtualClock())
        _out, report = RestoreClient(cloud, tracer=tracer).restore_to_memory(
            1, paths=["b/doc.doc"])
        fetched = [s.attrs["container"] for s in tracer.spans()
                   if s.name == "restore.container_fetch"]
        assert sorted(fetched) == sorted(want)
        assert report.containers_fetched == len(want)

    @pytest.mark.parametrize("escape", ["../escaped.txt", "a/../../escaped.txt",
                                        "absolute"])
    def test_directory_restore_refuses_escaping_path(self, backed_up,
                                                     tmp_path, escape):
        # A manifest path must not write outside ``dest``.
        cloud = backed_up[0]
        if escape == "absolute":
            escape = str(tmp_path / "escaped.txt")
        manifest = Manifest.from_json(cloud.get(naming.manifest_key(0)))
        forged = Manifest(0, manifest.scheme, created=manifest.created)
        for entry in manifest:
            if entry.path == "b/tiny.txt":
                entry = dataclasses.replace(entry, path=escape)
            forged.add(entry)
        cloud.put(naming.manifest_key(0), forged.to_json().encode("utf-8"))
        dest = tmp_path / "out"
        before = cloud.stats.get_requests
        with pytest.raises(RestoreError, match="escapes the destination"):
            RestoreClient(cloud).restore_to_directory(0, dest)
        assert cloud.stats.get_requests - before == 1  # the manifest only
        assert not (tmp_path / "escaped.txt").exists()
        assert not dest.exists()


def _random_tree(seed: int, total: int) -> dict:
    """``total`` bytes of 1 MiB random files over five categories."""
    rng = random.Random(seed)
    exts = ("vmdk", "mp3", "doc", "exe", "txt")
    return {f"d{i % 3}/f{i}.{exts[i % len(exts)]}": rng.randbytes(
        min(MIB, total - i * MIB)) for i in range(-(-total // MIB))}


class _FailingGet(InMemoryBackend):
    """Fails the ``fail_at``-th GET of a container key (1-based, counted
    from arming) once."""

    fail_at = 0

    def _get(self, key):
        if self.fail_at and key.startswith(naming.CONTAINER_PREFIX):
            self.fail_at -= 1
            if not self.fail_at:
                raise TransientCloudError(f"injected failure: get {key}")
        return super()._get(key)


def _tree(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


class TestStreamingRestore:
    """``restore_to_directory`` writes each verified extent straight into
    its destination file: memory is bounded by one container and the
    plan, not by the bytes restored."""

    @staticmethod
    def _traced_peak(mib: int) -> int:
        cloud = InMemoryBackend()
        client = BackupClient(cloud,
                              aa_dedupe_config(container_size=256 * KIB))
        client.backup(MemorySource(_random_tree(mib, mib * MIB)))
        client.close()
        with tempfile.TemporaryDirectory() as dest:
            tracemalloc.start()
            try:
                RestoreClient(cloud).restore_to_directory(0, dest)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_the_session(self):
        small, large = self._traced_peak(4), self._traced_peak(16)
        # Holding the session would cost more than 16 MiB here.
        assert large < 16 * MIB // 4
        assert large - small < 2 * MIB

    def test_out_of_order_extents_from_other_files_containers(self,
                                                             tmp_path):
        # c.doc = b.doc + a.doc: its tail dedups into containers a.doc
        # filled first, its head into later ones, so its extents land
        # out of file order, some before c.doc's own first container.
        rng = random.Random(21)
        a, b = rng.randbytes(60_000), rng.randbytes(60_000)
        files = {"a.doc": a, "b.doc": b, "c.doc": b + a}
        cloud = InMemoryBackend()
        BackupClient(cloud, aa_dedupe_config(container_size=32 * KIB)
                     ).backup(MemorySource(files))
        ids = [ref.container_id for ref in Manifest.from_json(
            cloud.get(naming.manifest_key(0))).get("c.doc").refs]
        assert ids != sorted(ids)
        RestoreClient(cloud).restore_to_directory(0, tmp_path)
        assert _tree(tmp_path) == files
        assert RestoreClient(cloud).restore_to_memory(0)[0] == files

    def test_empty_file_and_selection(self, backed_up, tmp_path):
        cloud = InMemoryBackend()
        files = {"e/empty.txt": b"", "b/doc.doc": backed_up[2]["b/doc.doc"],
                 "c/vm.vmdk": backed_up[2]["c/vm.vmdk"]}
        BackupClient(cloud).backup(MemorySource(files))
        RestoreClient(cloud).restore_to_directory(0, tmp_path / "all")
        assert _tree(tmp_path / "all") == files
        wanted = ["e/empty.txt", "c/vm.vmdk"]
        report = RestoreClient(cloud).restore_to_directory(
            0, tmp_path / "some", paths=wanted)
        assert _tree(tmp_path / "some") == {p: files[p] for p in wanted}
        assert report.files_restored == 2

    def test_overwrites_longer_files(self, backed_up, tmp_path):
        cloud, _c, files, _f2 = backed_up
        for path, data in files.items():
            (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / path).write_bytes(data + b"stale tail" * 1000)
        RestoreClient(cloud).restore_to_directory(0, tmp_path)
        assert _tree(tmp_path) == files

    def test_failure_keeps_finished_files_and_removes_started(self,
                                                              tmp_path):
        rng = random.Random(5)
        files = {"a.doc": rng.randbytes(20_000),
                 "b.doc": rng.randbytes(90_000)}
        cloud = _FailingGet()
        BackupClient(cloud, aa_dedupe_config(container_size=32 * KIB)
                     ).backup(MemorySource(files))
        refs = Manifest.from_json(cloud.get(naming.manifest_key(0))
                                  ).get("b.doc").refs
        assert len({ref.container_id for ref in refs}) > 2
        (tmp_path / "b.doc").write_bytes(b"old b" * 40_000)
        (tmp_path / "other.txt").write_bytes(b"not in the session")
        cloud.fail_at = 3  # b.doc has started by then
        with pytest.raises(TransientCloudError):
            RestoreClient(cloud).restore_to_directory(0, tmp_path)
        # a.doc finished bit-exact; the truncated b.doc is gone; a file
        # the restore never touched stays.
        assert _tree(tmp_path) == {"a.doc": files["a.doc"],
                                   "other.txt": b"not in the session"}
        RestoreClient(cloud).restore_to_directory(0, tmp_path)
        assert _tree(tmp_path) == {**files,
                                   "other.txt": b"not in the session"}


class TestGarbageCollection:
    def test_dropping_old_session_keeps_new_restorable(self, backed_up):
        cloud, _c, _f, files2 = backed_up
        report = collect_garbage(cloud, retain_sessions=[1])
        assert report.deleted_manifests == 1
        out, _ = RestoreClient(cloud).restore_to_memory(1)
        assert out == files2
        with pytest.raises(ObjectNotFound):
            RestoreClient(cloud).restore_to_memory(0)

    def test_retain_all_deletes_nothing(self, backed_up):
        cloud = backed_up[0]
        containers_before = len(cloud.list(naming.CONTAINER_PREFIX))
        report = collect_garbage(cloud, retain_sessions=[0, 1])
        assert report.deleted_containers == 0
        assert report.deleted_manifests == 0
        assert len(cloud.list(naming.CONTAINER_PREFIX)) == containers_before

    def test_drop_everything(self, backed_up):
        cloud = backed_up[0]
        report = collect_garbage(cloud, retain_sessions=[])
        assert report.deleted_manifests == 2
        assert cloud.list(naming.CONTAINER_PREFIX) == []

    def test_live_bytes_reported(self, backed_up):
        cloud = backed_up[0]
        report = collect_garbage(cloud, retain_sessions=[0, 1])
        assert sum(report.container_live_bytes.values()) > 100_000

    def test_stray_key_under_containers_does_not_wedge_gc(self):
        # Regression: the container sweep parsed every key under
        # containers/ with a bare int() — after the dropped manifests
        # were already deleted — so one stray key (a temp file left by
        # a PUT killed mid-write) made every later GC raise ValueError
        # with nothing swept.  (Own generator: the session-wide `rng`
        # stream feeds later tests.)
        cloud, _c, _f, files2 = _backed_up(np.random.default_rng(9))
        stray = naming.CONTAINER_PREFIX + "0000000009.k3j2.tmp"
        cloud.put(stray, b"torn")
        dead = (Manifest.from_json(cloud.get(naming.manifest_key(0)))
                .referenced_containers()
                - Manifest.from_json(cloud.get(naming.manifest_key(1)))
                .referenced_containers())
        report = collect_garbage(cloud, retain_sessions=[1])
        assert report.deleted_manifests == 1
        assert report.deleted_containers == len(dead) > 0
        assert stray in cloud.list(naming.CONTAINER_PREFIX)  # scrub's call
        out, _ = RestoreClient(cloud).restore_to_memory(1)
        assert out == files2

    def test_delta_ref_refused_by_gc_and_restore(self):
        # A ref carrying a delta base ("base") and a stored length
        # ("slen") rebuilds its chunk from another extent.  Ignoring the
        # keys would let GC sweep the base's container and make restore
        # read the delta program as chunk bytes, so the manifest is
        # refused: GC reports a problem and deletes nothing, and
        # restore raises a readable error.  (Own generator: the
        # session-wide `rng` stream feeds later tests.)
        cloud = _backed_up(np.random.default_rng(11))[0]
        doc = json.loads(cloud.get(naming.manifest_key(1)))
        refs = next(e for e in doc["files"]
                    if e["path"] == "b/doc.doc")["refs"]
        refs[-1] = {**refs[-1], "slen": 64, "base": dict(refs[0])}
        cloud.put(naming.manifest_key(1), json.dumps(doc).encode())
        keys = set(cloud.list(""))
        report = collect_garbage(cloud, retain_sessions=[1])
        assert len(report.problems) == 1
        assert "delta chunk reference" in report.problems[0]
        assert report.deleted_manifests == report.deleted_containers == 0
        assert set(cloud.list("")) == keys
        with pytest.raises(RestoreError, match="delta chunk reference"):
            RestoreClient(cloud).restore_to_memory(1)

    def test_object_mode_gc(self, rng):
        # Avamar-style standalone chunk objects are swept too.
        from repro.baselines import avamar_config
        files = {"x.doc": rng.integers(0, 256, 30_000,
                                       dtype=np.uint8).tobytes()}
        cloud = InMemoryBackend()
        client = BackupClient(cloud, avamar_config())
        client.backup(MemorySource(files))
        assert cloud.list(naming.CHUNK_PREFIX)
        report = collect_garbage(cloud, retain_sessions=[])
        assert report.deleted_objects > 0
        assert cloud.list(naming.CHUNK_PREFIX) == []


class TestIndexSync:
    """The manifests are the index's cloud copy: a new process's first
    session open rebuilds it."""

    def test_push_pull_roundtrip(self, backed_up):
        cloud, client, _f, _f2 = backed_up
        fresh = BackupClient(cloud, client.config)
        warnings = []
        fresh._open(warnings)
        assert warnings == []
        assert len(fresh.index) == len(client.index)
        assert ({app: len(fresh.index.subindex(app))
                 for app in fresh.index.apps}
                == {app: len(client.index.subindex(app))
                    for app in client.index.apps})

    def test_push_skips_unchanged(self, backed_up):
        # A session that adds no chunk writes no index anywhere: only
        # the tiny-file repack and the manifest go up.
        cloud, client, _f, files2 = backed_up
        before = set(cloud.list(""))
        client.backup(MemorySource(files2))
        added = {key.split("/")[0] for key in set(cloud.list("")) - before}
        assert added == {"containers", "manifests"}

    def test_disaster_recovery_dedup_continuity(self, backed_up, rng):
        # A brand-new client rebuilds its index from the manifests at
        # its first session open and keeps deduplicating against data
        # already in the cloud.
        cloud, old_client, files, files2 = backed_up
        new_client = BackupClient(cloud, old_client.config)
        stats = new_client.backup(MemorySource(files2))
        assert stats.session_id == 2
        # Only tiny repack bytes are re-uploaded; all chunks dedup.
        assert stats.bytes_unique <= 200
        for session_id, expected in enumerate((files, files2, files2)):
            out, _ = RestoreClient(cloud).restore_to_memory(session_id)
            assert out == expected


class TestDirectorySourceEndToEnd:
    def test_real_directory_to_real_store(self, tmp_path, rng):
        src = tmp_path / "data"
        (src / "docs").mkdir(parents=True)
        payload = rng.integers(0, 256, 25_000, dtype=np.uint8).tobytes()
        (src / "docs" / "f.doc").write_bytes(payload)
        (src / "note.txt").write_bytes(b"hello world")
        store = LocalDirectoryBackend(tmp_path / "cloud")
        client = BackupClient(store, aa_dedupe_config(
            container_size=32 * KIB))
        stats = client.backup(DirectorySource(src))
        assert stats.files_total == 2
        out_dir = tmp_path / "restored"
        restore_session(store, 0, out_dir)
        assert (out_dir / "docs" / "f.doc").read_bytes() == payload
        assert (out_dir / "note.txt").read_bytes() == b"hello world"
        assert sum(sf.size for sf in DirectorySource(src)) == 25_000 + 11

    def test_killed_put_leaves_no_object(self, tmp_path, monkeypatch):
        # A PUT killed between write and rename leaves its temp file in
        # the store directory.  It is not an object: it is not listed,
        # scrub stays clean and container numbering ignores it.
        import os
        store = LocalDirectoryBackend(tmp_path / "cloud")
        client = BackupClient(store, aa_dedupe_config(
            container_size=32 * KIB))
        client.backup(MemorySource({"f.doc": np.random.default_rng(
            9).integers(0, 256, 25_000, dtype=np.uint8).tobytes()}))
        listed = store.list("")
        next_id = max(naming.next_container_ids(store).values())

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", killed)
        monkeypatch.setattr(os, "unlink", lambda path: None)
        with pytest.raises(KeyboardInterrupt):
            store.put(naming.container_key(next_id), b"torn")
        monkeypatch.undo()
        on_disk = list((tmp_path / "cloud" / "containers").iterdir())
        assert len(on_disk) == len(store.list(naming.CONTAINER_PREFIX)) + 1
        assert store.list("") == listed
        assert scrub_cloud(store).clean
        fresh = BackupClient(store, client.config)
        fresh._open([])
        assert fresh._containers.next_container_id == next_id
