"""One store walk: what reading manifests through one reader fixes.

GC, scrub, durability planning, retention and ``repro ls`` read the
store through :class:`repro.core.walk.StoreWalk`, catch one exception
family, list the tenant subtree once, and share one mark.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cloud import InMemoryBackend, NamespacedBackend
from repro.core import (BackupClient, MemorySource, aa_dedupe_config,
                        collect_garbage, naming)
from repro.core.gc import session_catalog
from repro.core.recipe import Manifest
from repro.core.scrub import scrub_cloud
from repro.core.walk import StoreWalk, mark_store
from repro.errors import ReproError, RestoreError
from repro.fleet import (GlobalDedupDirectory, fleet_spec,
                         synthetic_fleet_sources)
from repro.service import BackupService


class ListCountingBackend(InMemoryBackend):
    """Counts ``list`` calls per prefix."""

    def __init__(self) -> None:
        super().__init__()
        self.lists = Counter()

    def list(self, prefix: str = "") -> list:
        self.lists[prefix] += 1
        return super().list(prefix)


def _store():
    # Own generator: the session-wide `rng` stream feeds later tests.
    rng = np.random.default_rng(25)
    cloud = InMemoryBackend()
    client = BackupClient(cloud, aa_dedupe_config(container_size=32 * 1024))
    for salt in range(2):
        client.backup(MemorySource({
            "d/r.doc": rng.integers(0, 256, 30_000,
                                    dtype=np.uint8).tobytes(),
            "m/a.mp3": bytes([salt]) * 20_000}))
    client.close()
    return cloud


@pytest.fixture(scope="module")
def fleet_backend():
    service = BackupService(fleet_spec(synthetic_fleet_sources(2, 2)),
                            backend=ListCountingBackend(),
                            directory=GlobalDedupDirectory())
    service.run()
    service.close()
    return service.backend


class TestOneErrorFamily:
    @pytest.mark.parametrize("text", [
        '{"format": 1}', "[1, 2]", "not json",
        '{"format": 1, "session": 0, "scheme": "x", "created": 0, '
        '"files": [{"path": "p"}]}'])
    def test_malformed_manifest_is_restore_error(self, text):
        with pytest.raises(RestoreError):
            Manifest.from_json(text)

    def test_scrub_reports_truncated_manifest(self):
        cloud = _store()
        cloud.put(naming.manifest_key(1), b'{"format": 1}')
        report = scrub_cloud(cloud)
        kinds = [f.kind for f in report.findings]
        assert kinds == ["corrupt_manifest"]
        assert naming.manifest_key(1) in report.problems[0]

    def test_gc_refuses_on_stray_manifest_key(self):
        cloud = _store()
        cloud.put(naming.MANIFEST_PREFIX + "README", b"notes")
        keys = set(cloud.list(""))
        report = collect_garbage(cloud, [1])
        assert report.problems == ["manifests/README names no session"]
        assert report.deleted_manifests == report.deleted_containers == 0
        assert set(cloud.list("")) == keys

    def test_catalog_skips_stray_key_but_not_corrupt_manifest(self):
        cloud = _store()
        cloud.put(naming.MANIFEST_PREFIX + "README", b"notes")
        assert sorted(session_catalog(cloud)) == [0, 1]
        cloud.put(naming.manifest_key(1), b"{}")
        with pytest.raises(ReproError, match="session-000001"):
            session_catalog(cloud)


class TestFleetStore:
    def test_gc_reports_live_bytes_of_tenant_only_containers(
            self, fleet_backend):
        containers = {naming.container_id_of(key) for key in
                      fleet_backend.list(naming.CONTAINER_PREFIX)}
        report = collect_garbage(fleet_backend, [])
        assert not report.problems and report.deleted_containers == 0
        assert len(containers) == 16
        assert set(report.container_live_bytes) == containers
        assert all(report.container_live_bytes.values())

    def test_tenant_subtree_listed_once(self, fleet_backend):
        fleet_backend.lists.clear()
        collect_garbage(fleet_backend, [])
        assert fleet_backend.lists[naming.TENANT_PREFIX] == 1
        fleet_backend.lists.clear()
        scrub_cloud(fleet_backend)
        assert fleet_backend.lists[naming.TENANT_PREFIX] == 1

    def test_walk_sees_root_and_tenants(self, fleet_backend):
        walk = StoreWalk(fleet_backend)
        namespaces = Counter(r.namespace for r in walk.manifests)
        assert namespaces == {"c000": 2, "c001": 2}
        assert all(r.session_id in (0, 1) for r in walk.manifests)

    def test_mark_is_criticality_and_liveness(self, fleet_backend):
        marked = mark_store(StoreWalk(fleet_backend))
        assert marked.tenant_manifests == 4 and not marked.problems
        gc = collect_garbage(fleet_backend, [])
        assert {cid: m.live_bytes for cid, m in marked.containers.items()} \
            == gc.container_live_bytes
        # Cross-client dedup: some container backs both tenants.
        assert any(len({naming.split_tenant_key(key)[0]
                        for key in mark.manifests}) == 2
                   for mark in marked.containers.values())


class TestTenantKeyMap:
    def test_round_trip(self):
        for namespace in (None, "c000"):
            for key in ("manifests/session-000001.json",
                        naming.container_key(3), "files/000001/ab"):
                raw = naming.tenant_key(namespace, key)
                shared = key.startswith(naming.SHARED_PREFIXES)
                assert naming.split_tenant_key(raw) == (
                    None if shared else namespace, key)

    def test_view_and_walk_agree(self):
        raw = InMemoryBackend()
        view = NamespacedBackend(raw, "job")
        view.put(naming.manifest_key(0), b"{}")
        view.put(naming.container_key(0), b"x")
        assert raw.exists(naming.tenant_key("job", naming.manifest_key(0)))
        assert raw.exists(naming.container_key(0))
        [record] = StoreWalk(raw).manifests
        assert (record.namespace, record.session_id) == ("job", 0)
