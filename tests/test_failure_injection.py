"""Failure-injection tests: the engine must fail loudly, never corrupt."""

import numpy as np
import pytest

from repro.baselines import jungle_disk_config
from repro.cloud import InMemoryBackend
from repro.core import (
    BackupClient,
    DirectorySource,
    MemorySource,
    RestoreClient,
    aa_dedupe_config,
    naming,
)
from repro.errors import BackupError, CloudError, ObjectNotFound
from repro.util.units import KIB


class FlakyBackend(InMemoryBackend):
    """Backend that fails the Nth put (transient WAN error injection)."""

    def __init__(self, fail_on_put: int):
        super().__init__()
        self.fail_on_put = fail_on_put
        self._puts_seen = 0

    def _put(self, key: str, data: bytes) -> None:
        self._puts_seen += 1
        if self._puts_seen == self.fail_on_put:
            raise CloudError("injected transient failure")
        super()._put(key, data)


@pytest.fixture()
def files(rng):
    return {f"d/file{i}.doc": rng.integers(
        0, 256, 30_000, dtype=np.uint8).tobytes() for i in range(6)}


class TestUploadFailures:
    def test_synchronous_upload_failure_propagates(self, files):
        cloud = FlakyBackend(fail_on_put=2)
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB))
        with pytest.raises(CloudError):
            client.backup(MemorySource(files))

    def test_pipelined_upload_failure_propagates(self, files):
        cloud = FlakyBackend(fail_on_put=2)
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB, pipeline_uploads=True))
        with pytest.raises((BackupError, CloudError)):
            client.backup(MemorySource(files))

    def test_parallel_upload_failure_propagates(self, files):
        cloud = FlakyBackend(fail_on_put=2)
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB, parallel_workers=3))
        with pytest.raises(CloudError):
            client.backup(MemorySource(files))

    def test_failed_session_does_not_poison_next(self, files):
        # After a failed session the client can run a fresh one; the
        # failed session left no manifest, so it is simply absent.
        cloud = FlakyBackend(fail_on_put=2)
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB))
        with pytest.raises(CloudError):
            client.backup(MemorySource(files), session_id=0)
        stats = client.backup(MemorySource(files), session_id=1)
        assert stats.files_total == len(files)
        restored, _ = RestoreClient(cloud).restore_to_memory(1)
        assert restored == files
        with pytest.raises(ObjectNotFound):
            RestoreClient(cloud).restore_to_memory(0)


class TestSourceFailures:
    def test_unreadable_file_aborts_cleanly(self, files):
        # A reader failing with anything but an OSError is a bug, not a
        # file that went away: it still fails the session.
        from repro.core.source import SourceFile

        def broken_source():
            yield SourceFile(path="ok.doc", size=100, mtime_ns=0,
                             reader=lambda: bytes(100))
            yield SourceFile(path="bad.doc", size=100, mtime_ns=0,
                             reader=lambda: (_ for _ in ()).throw(
                                 RuntimeError("reader bug")))

        cloud = InMemoryBackend()
        client = BackupClient(cloud, aa_dedupe_config())
        with pytest.raises(RuntimeError):
            client.backup(broken_source())
        assert not cloud.list(naming.MANIFEST_PREFIX)

    @pytest.mark.parametrize("config", [
        aa_dedupe_config(container_size=32 * KIB),
        aa_dedupe_config(container_size=32 * KIB, parallel_workers=2),
        jungle_disk_config()], ids=["serial", "parallel", "jungle_disk"])
    def test_vanished_file_left_out(self, tmp_path, config):
        # A file deleted between the walk and its read is left out of
        # the session with a warning; the rest of the session commits.
        gen = np.random.default_rng(76)
        files = {f"d/file{i}.doc": gen.integers(
            0, 256, 30_000, dtype=np.uint8).tobytes() for i in range(6)}
        for path, data in files.items():
            (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / path).write_bytes(data)
        victim = "d/file2.doc"

        def vanishing():
            for sf in DirectorySource(tmp_path):
                if sf.path == victim:
                    (tmp_path / victim).unlink()
                yield sf

        cloud = InMemoryBackend()
        client = BackupClient(cloud, config)
        stats = client.backup(vanishing())
        client.close()
        del files[victim]
        assert stats.files_total == len(files)
        assert stats.bytes_scanned == sum(map(len, files.values()))
        [warning] = stats.warnings
        assert victim in warning
        restore = RestoreClient(cloud)
        assert restore.load_manifest(0).get(victim) is None
        restored, _ = restore.restore_to_memory(0)
        assert restored == files

    def test_walk_skips_vanished_files(self, tmp_path):
        # walk_files tolerates entries disappearing mid-scan.
        from repro.util.io import walk_files
        (tmp_path / "a.txt").write_bytes(b"x")
        stats = list(walk_files(tmp_path))
        assert len(stats) == 1


class TestRestoreFailures:
    def test_truncated_container_detected(self, files, rng):
        from repro.core import naming
        from repro.errors import IntegrityError
        cloud = InMemoryBackend()
        BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB)).backup(MemorySource(files))
        key = cloud.list(naming.CONTAINER_PREFIX)[0]
        cloud._objects[key] = cloud._objects[key][:-100]
        with pytest.raises(IntegrityError):
            RestoreClient(cloud).restore_to_memory(0)

    def test_manifest_garbage_rejected(self, files):
        from repro.core import naming
        from repro.errors import RestoreError
        cloud = InMemoryBackend()
        BackupClient(cloud, aa_dedupe_config()).backup(MemorySource(files))
        cloud._objects[naming.manifest_key(0)] = b"{not json"
        with pytest.raises((RestoreError, ValueError)):
            RestoreClient(cloud).restore_to_memory(0)
