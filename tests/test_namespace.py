"""Tests for NamespacedBackend shared-prefix semantics and fault
injection through tenant views."""

import pytest

from repro.cloud import InMemoryBackend, NamespacedBackend
from repro.cloud.faults import ChaosBackend
from repro.core import naming
from repro.errors import ObjectNotFound, PermanentCloudError


@pytest.fixture()
def shared():
    raw = InMemoryBackend()
    return raw, NamespacedBackend(raw, "a"), NamespacedBackend(raw, "b")


CONTAINER = naming.container_key(7)


class TestSharedPrefixes:
    def test_shared_put_visible_to_every_tenant(self, shared):
        raw, a, b = shared
        a.put(CONTAINER, b"payload")
        assert raw.get(CONTAINER) == b"payload"  # unprefixed
        assert b.get(CONTAINER) == b"payload"
        assert b.exists(CONTAINER)

    def test_shared_delete_by_other_tenant(self, shared):
        _raw, a, b = shared
        a.put(CONTAINER, b"payload")
        assert b.delete(CONTAINER)
        assert not a.exists(CONTAINER)
        with pytest.raises(ObjectNotFound):
            a.get(CONTAINER)

    def test_shared_list_merges_into_tenant_view(self, shared):
        _raw, a, b = shared
        a.put(CONTAINER, b"x")
        a.put("manifests/session-000000.json", b"{}")
        keys = set(b.list(""))
        assert CONTAINER in keys
        assert "manifests/session-000000.json" not in keys
        assert set(b.list(naming.CONTAINER_PREFIX)) == {CONTAINER}

    def test_replica_and_durability_keys_are_shared(self, shared):
        raw, a, b = shared
        replica = naming.replica_key("d1", 7)
        a.put(replica, b"copy")
        a.put(naming.DURABILITY_PLAN_KEY, b"{}")
        assert raw.get(replica) == b"copy"
        assert b.get(replica) == b"copy"
        assert b.get(naming.DURABILITY_PLAN_KEY) == b"{}"
        assert set(b.list(naming.REPLICA_PREFIX)) == {replica}

    def test_private_keys_stay_isolated(self, shared):
        raw, a, b = shared
        a.put("manifests/session-000000.json", b"{}")
        assert raw.exists("clients/a/manifests/session-000000.json")
        assert not b.exists("manifests/session-000000.json")
        assert b.list(naming.MANIFEST_PREFIX) == []
        assert not b.delete("manifests/session-000000.json")
        assert a.exists("manifests/session-000000.json")

    def test_same_private_key_in_two_tenants(self, shared):
        _raw, a, b = shared
        a.put("journals/session-000000.json", b"A")
        b.put("journals/session-000000.json", b"B")
        assert a.get("journals/session-000000.json") == b"A"
        assert b.get("journals/session-000000.json") == b"B"
        b.delete("journals/session-000000.json")
        assert a.get("journals/session-000000.json") == b"A"

    def test_tenant_cannot_see_namespace_root(self, shared):
        raw, a, _b = shared
        raw.put("clients/b/manifests/session-000000.json", b"{}")
        assert a.list(naming.TENANT_PREFIX) == []


class TestChaosThroughNamespace:
    """permanent_error_keys matches the *post-prefix* keys tenants
    actually issue against the shared backend."""

    def test_private_key_fault_needs_prefixed_key(self):
        chaos = ChaosBackend(
            InMemoryBackend(),
            permanent_error_keys={
                "clients/t0/manifests/session-000000.json"})
        view = NamespacedBackend(chaos, "t0")
        with pytest.raises(PermanentCloudError):
            view.put("manifests/session-000000.json", b"{}")
        # The unprefixed spelling never reaches the chaos layer, so
        # configuring it is a no-op for tenant traffic.
        chaos2 = ChaosBackend(
            InMemoryBackend(),
            permanent_error_keys={"manifests/session-000000.json"})
        view2 = NamespacedBackend(chaos2, "t0")
        view2.put("manifests/session-000000.json", b"{}")
        assert view2.exists("manifests/session-000000.json")

    def test_shared_key_fault_uses_unprefixed_key(self):
        chaos = ChaosBackend(InMemoryBackend(),
                             permanent_error_keys={CONTAINER})
        view = NamespacedBackend(chaos, "t0")
        with pytest.raises(PermanentCloudError):
            view.put(CONTAINER, b"payload")

    def test_fault_isolated_to_one_tenant(self):
        chaos = ChaosBackend(
            InMemoryBackend(),
            permanent_error_keys={"clients/a/journals/j"})
        a = NamespacedBackend(chaos, "a")
        b = NamespacedBackend(chaos, "b")
        with pytest.raises(PermanentCloudError):
            a.put("journals/j", b"x")
        b.put("journals/j", b"x")
        assert b.get("journals/j") == b"x"
