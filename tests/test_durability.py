"""Tests for the durability subsystem: policy, placement, replication,
scrub findings, repair, restore failover and GC interaction."""

import numpy as np
import pytest

from repro.cloud import InMemoryBackend
from repro.core import BackupClient, MemorySource, RestoreClient, \
    aa_dedupe_config, collect_garbage
from repro.core import naming
from repro.core.scrub import scrub_cloud
from repro.core.walk import ContainerMark, StoreWalk, mark_store
from repro.durability import (
    DurabilityPolicy,
    ReplicationPlan,
    default_domains,
    kill_domain,
    primary_domain,
    repair_cloud,
    replica_domains,
    replica_keys,
    replicate_cloud,
)
from repro.errors import ConfigError, ObjectNotFound

#: Replicate everything twice — deterministic targets for the tests
#: that care about damage/repair rather than tiering.
R2 = DurabilityPolicy(base_replicas=2)
DOMAINS = ("d0", "d1", "d2")


def make_files(rng, salt=0):
    return {
        "m/a.mp3": rng.integers(0, 256, 30_000,
                                dtype=np.uint8).tobytes() + bytes([salt]),
        "d/r.doc": rng.integers(0, 256, 25_000,
                                dtype=np.uint8).tobytes() + bytes([salt]),
        "t/t.txt": b"small note %d" % salt,
    }


@pytest.fixture()
def store(rng):
    files = make_files(rng)
    cloud = InMemoryBackend()
    client = BackupClient(cloud, aa_dedupe_config(container_size=32 * 1024))
    client.backup(MemorySource(files))
    client.close()
    return cloud, files


@pytest.fixture()
def replicated(store):
    cloud, files = store
    report = replicate_cloud(cloud, policy=R2, domains=DOMAINS)
    assert report.replicas_written >= 1
    return cloud, files, report


class TestPlacement:
    def test_default_domains(self):
        assert default_domains() == ("d0", "d1", "d2")
        assert default_domains(5) == ("d0", "d1", "d2", "d3", "d4")

    def test_primary_assignment_deterministic(self):
        assert primary_domain(0, DOMAINS) == "d0"
        assert primary_domain(4, DOMAINS) == "d1"
        assert primary_domain(4, DOMAINS) == primary_domain(4, DOMAINS)

    def test_replicas_avoid_primary_domain(self):
        for cid in range(10):
            home = primary_domain(cid, DOMAINS)
            others = replica_domains(cid, DOMAINS, replicas=3)
            assert home not in others
            assert len(others) == len(set(others)) == 2

    def test_replica_keys_shape(self):
        keys = replica_keys(7, DOMAINS, replicas=2)
        assert len(keys) == 1
        domain, cid = naming.parse_replica_key(keys[0])
        assert cid == 7 and domain in DOMAINS

    def test_replicas_capped_by_domains(self):
        assert list(replica_domains(1, ("only",), replicas=3)) == []

    def test_empty_domains_rejected(self):
        with pytest.raises(ConfigError):
            primary_domain(0, ())

    def test_parse_replica_key_malformed(self):
        assert naming.parse_replica_key("replicas/") is None
        assert naming.parse_replica_key("replicas/d0/chunks/ab") is None
        assert naming.parse_replica_key("replicas/d0/containers/xx") is None
        assert naming.parse_replica_key("containers/0000000001") is None


class TestPolicy:
    def crit(self, **kw):
        base = dict(refcount=1,
                    manifests={"manifests/session-000000.json"},
                    categories={"compressed"})
        base.update(kw)
        return ContainerMark(refcount=base["refcount"],
                             manifests=set(base["manifests"]),
                             categories=set(base["categories"]))

    def test_quiet_container_stays_single(self):
        assert DurabilityPolicy().target_replicas(self.crit(), DOMAINS) == 1

    def test_one_signal_adds_a_copy(self):
        p = DurabilityPolicy()
        assert p.target_replicas(self.crit(refcount=8), DOMAINS) == 2
        assert p.target_replicas(
            self.crit(manifests={"m1", "m2"}), DOMAINS) == 2
        assert p.target_replicas(
            self.crit(categories={"dynamic_uncompressed"}), DOMAINS) == 2

    def test_all_signals_add_two_copies(self):
        hot = self.crit(refcount=100, manifests={"m1", "m2", "m3"},
                        categories={"dynamic_uncompressed"})
        assert DurabilityPolicy().target_replicas(hot, DOMAINS) == 3

    def test_clamped_by_domain_count(self):
        hot = self.crit(refcount=100, manifests={"m1", "m2"},
                        categories={"dynamic_uncompressed"})
        assert DurabilityPolicy().target_replicas(hot, ("d0",)) == 1
        assert DurabilityPolicy().target_replicas(hot, ("d0", "d1")) == 2

    def test_clamped_by_max_replicas(self):
        hot = self.crit(refcount=100, manifests={"m1", "m2"},
                        categories={"dynamic_uncompressed"})
        p = DurabilityPolicy(max_replicas=2)
        assert p.target_replicas(hot, DOMAINS) == 2


class TestReplicationPlan:
    def test_round_trip(self):
        plan = ReplicationPlan(domains=DOMAINS, targets={3: 2, 9: 3})
        again = ReplicationPlan.from_json(plan.to_json())
        assert again.domains == DOMAINS
        assert again.targets == {3: 2, 9: 3}

    def test_single_copy_entries_not_recorded(self):
        plan = ReplicationPlan(domains=DOMAINS, targets={1: 1, 2: 2})
        assert 1 not in plan and 2 in plan
        assert plan.target(1) == 1 and plan.target(2) == 2
        assert plan.replica_keys(1) == []

    def test_save_load_and_empty_save_deletes(self):
        cloud = InMemoryBackend()
        plan = ReplicationPlan(domains=DOMAINS, targets={5: 2})
        plan.save(cloud)
        assert ReplicationPlan.load(cloud).targets == {5: 2}
        plan.prune(live_containers=set())
        plan.save(cloud)
        assert not cloud.exists(naming.DURABILITY_PLAN_KEY)
        assert ReplicationPlan.load(cloud) is None

    def test_unreadable_plan_treated_as_absent(self):
        cloud = InMemoryBackend()
        cloud.put(naming.DURABILITY_PLAN_KEY, b"not json at all")
        assert ReplicationPlan.load(cloud) is None

    def test_prune_reports_removals(self):
        plan = ReplicationPlan(domains=DOMAINS, targets={1: 2, 2: 2, 3: 2})
        assert plan.prune({2}) == 2
        assert plan.targets == {2: 2}


class TestCriticality:
    def test_fan_in_counts_sessions(self, rng):
        cloud = InMemoryBackend()
        client = BackupClient(cloud,
                              aa_dedupe_config(container_size=32 * 1024))
        files = make_files(rng)
        client.backup(MemorySource(files))
        client.backup(MemorySource(files))  # same data, second manifest
        client.close()
        crit = mark_store(StoreWalk(cloud)).containers
        assert crit, "expected at least one referenced container"
        # Deduped containers are referenced by both manifests; the
        # per-session tiny-file containers stay at fan-in 1.
        shared = [c for c in crit.values() if c.fan_in == 2]
        assert shared
        assert all(c.refcount >= 2 for c in shared)
        categories = set().union(*(c.categories for c in crit.values()))
        assert "dynamic_uncompressed" in categories


class TestReplicate:
    def test_writes_replicas_and_plan(self, replicated):
        cloud, _files, report = replicated
        plan = ReplicationPlan.load(cloud)
        assert plan is not None and plan.targets == report.targets
        for cid, target in plan.targets.items():
            # base_replicas=2, plus criticality signals on hot/doc
            # containers.
            assert target >= 2
            assert len(plan.replica_keys(cid)) == target - 1
            for key in plan.replica_keys(cid):
                assert cloud.exists(key)
                assert naming.parse_replica_key(key)[1] == cid

    def test_second_pass_is_idempotent(self, replicated):
        cloud, _files, first = replicated
        second = replicate_cloud(cloud, policy=R2, domains=DOMAINS)
        assert second.replicas_written == 0
        assert second.replicas_existing == first.replicas_written

    def test_domains_stick_across_passes(self, replicated):
        cloud, _files, _report = replicated
        # No explicit domains: the pass must reuse the plan's.
        again = replicate_cloud(cloud, policy=R2)
        assert again.replicas_written == 0
        assert ReplicationPlan.load(cloud).domains == DOMAINS

    def test_default_policy_replicates_only_critical(self, store):
        cloud, _files = store
        report = replicate_cloud(cloud, domains=DOMAINS)
        # One session, low refcounts: only containers holding
        # dynamic-uncompressed (doc) data tier up.
        assert 0 < report.containers_replicated \
            < report.containers_considered


class TestScrubDurability:
    def test_fully_replicated_store_is_clean(self, replicated):
        cloud, _files, _report = replicated
        report = scrub_cloud(cloud)
        assert report.clean
        assert report.replicas_checked >= 1

    def test_missing_replica_is_repairable_finding(self, replicated):
        cloud, _files, _rep = replicated
        victim = cloud.list(naming.REPLICA_PREFIX)[0]
        cloud.delete(victim)
        report = scrub_cloud(cloud)
        assert not report.clean
        assert not report.problems  # data intact, durability degraded
        kinds = {f.kind for f in report.findings}
        assert kinds == {"missing_replica", "under_replicated"}
        assert all(f.repairable for f in report.findings)
        assert "repairable" in report.summary_line()

    def test_lost_primary_recovered_through_replica(self, replicated):
        cloud, _files, _rep = replicated
        victim = cloud.list(naming.CONTAINER_PREFIX)[0]
        cloud.delete(victim)
        report = scrub_cloud(cloud)
        assert not report.clean
        assert not report.problems  # refs resolve via the replica
        kinds = {f.kind for f in report.findings}
        assert "missing_primary" in kinds
        assert "container_lost" not in kinds

    def test_corrupt_replica_detected(self, replicated):
        cloud, _files, _rep = replicated
        victim = cloud.list(naming.REPLICA_PREFIX)[0]
        blob = bytearray(cloud.get(victim))
        blob[50] ^= 0xFF
        cloud._objects[victim] = bytes(blob)
        report = scrub_cloud(cloud)
        assert any(f.kind == "corrupt_replica" for f in report.findings)

    def test_all_copies_lost_is_a_problem(self, replicated):
        cloud, _files, _rep = replicated
        plan = ReplicationPlan.load(cloud)
        cid = sorted(plan.targets)[0]
        cloud.delete(naming.container_key(cid))
        for key in plan.replica_keys(cid):
            cloud.delete(key)
        report = scrub_cloud(cloud)
        assert any(f.kind == "container_lost" and not f.repairable
                   for f in report.findings)
        assert report.problems

    def test_orphan_replica_flagged(self, store):
        cloud, _files = store
        cloud.put(naming.replica_key("d9", 12345), b"whatever")
        report = scrub_cloud(cloud)
        assert any(f.kind == "orphan_replica" for f in report.findings)


class TestRepair:
    def test_promotes_replica_after_primary_loss(self, replicated):
        cloud, files, _rep = replicated
        victim = cloud.list(naming.CONTAINER_PREFIX)[0]
        cloud.delete(victim)
        report = repair_cloud(cloud)
        assert report.ok and report.primaries_restored == 1
        assert cloud.exists(victim)
        assert scrub_cloud(cloud).clean
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files

    def test_rebuilds_missing_replica(self, replicated):
        cloud, _files, _rep = replicated
        victim = cloud.list(naming.REPLICA_PREFIX)[0]
        cloud.delete(victim)
        report = repair_cloud(cloud)
        assert report.ok and report.replicas_restored == 1
        assert report.bytes_copied > 0
        assert cloud.exists(victim)
        assert scrub_cloud(cloud).clean

    def test_replaces_corrupt_copy(self, replicated):
        cloud, _files, _rep = replicated
        victim = cloud.list(naming.REPLICA_PREFIX)[0]
        cloud._objects[victim] = b"garbage"
        assert repair_cloud(cloud).replicas_restored == 1
        assert scrub_cloud(cloud).clean

    def test_unrepairable_when_no_copy_survives(self, replicated):
        cloud, _files, _rep = replicated
        plan = ReplicationPlan.load(cloud)
        cid = sorted(plan.targets)[0]
        cloud.delete(naming.container_key(cid))
        for key in plan.replica_keys(cid):
            cloud.delete(key)
        report = repair_cloud(cloud)
        assert not report.ok
        assert any(str(cid) in msg for msg in report.unrepairable)

    def test_noop_without_plan(self, store):
        cloud, _files = store
        report = repair_cloud(cloud)
        assert report.ok and report.containers_checked == 0


class TestDomainKill:
    def test_kill_domain_then_repair_converges(self, replicated):
        cloud, files, _rep = replicated
        deleted = kill_domain(cloud, "d0", DOMAINS)
        assert deleted >= 1
        assert repair_cloud(cloud).ok
        assert scrub_cloud(cloud).clean
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files


class TestRestoreFailover:
    def test_restore_fails_over_to_replica(self, replicated):
        cloud, files, _rep = replicated
        for key in cloud.list(naming.CONTAINER_PREFIX):
            cloud.delete(key)
        client = RestoreClient(cloud)
        restored, report = client.restore_to_memory(0)
        assert restored == files
        assert report.failovers >= 1

    def test_missing_primary_without_plan_still_raises(self, store):
        cloud, _files = store
        for key in cloud.list(naming.CONTAINER_PREFIX):
            cloud.delete(key)
        with pytest.raises(ObjectNotFound):
            RestoreClient(cloud).restore_to_memory(0)


class TestRestoreCorruptionRetry:
    """Transport bit flips (ChaosBackend.corrupt_rate) must be retried
    once; corruption that persists across the retry surfaces."""

    def test_container_corruption_retried(self, store):
        from repro.cloud.faults import ChaosBackend
        cloud, files = store
        # seed chosen so at least one container get is flipped but no
        # fetch is flipped twice in a row
        chaos = ChaosBackend(cloud, seed=29, corrupt_rate=0.5)
        restored, report = RestoreClient(chaos).restore_to_memory(0)
        assert restored == files
        assert report.fetch_retries >= 1
        assert chaos.chaos.corruptions >= 1

    def test_standalone_object_corruption_retried(self):
        from repro.baselines import avamar_config

        class FlipFirstChunkGet(InMemoryBackend):
            """Flips one byte of the first GET of every chunk object."""

            def __init__(self) -> None:
                super().__init__()
                self.flipped: set = set()

            def _get(self, key):
                data = super()._get(key)
                if (data and key.startswith(naming.CHUNK_PREFIX)
                        and key not in self.flipped):
                    self.flipped.add(key)
                    data = bytes([data[0] ^ 0x01]) + data[1:]
                return data

        files = make_files(np.random.default_rng(374))
        cloud = FlipFirstChunkGet()
        client = BackupClient(cloud, avamar_config())
        client.backup(MemorySource(files))
        client.close()
        restored, report = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files
        assert report.objects_fetched > 0
        # Every standalone object was flipped once and retried once.
        assert cloud.flipped == set(cloud.list(naming.CHUNK_PREFIX))
        assert report.fetch_retries == len(cloud.flipped)

    def test_at_rest_corruption_still_surfaces(self, store):
        from repro.errors import IntegrityError
        cloud, _files = store
        victim = cloud.list(naming.CONTAINER_PREFIX)[0]
        blob = bytearray(cloud.get(victim))
        blob[200] ^= 0x01
        cloud._objects[victim] = bytes(blob)
        with pytest.raises(IntegrityError):
            RestoreClient(cloud).restore_to_memory(0)


class TestGCDurability:
    def test_replicas_swept_with_dead_containers(self, rng):
        cloud = InMemoryBackend()
        client = BackupClient(cloud,
                              aa_dedupe_config(container_size=32 * 1024))
        client.backup(MemorySource(make_files(rng, salt=1)))
        client.backup(MemorySource(make_files(rng, salt=2)))
        client.close()
        replicate_cloud(cloud, policy=R2, domains=DOMAINS)

        report = collect_garbage(cloud, retain_sessions=[1])
        assert report.deleted_containers >= 1
        assert report.deleted_replicas >= 1
        assert report.plan_pruned >= 1
        # No orphans: every surviving replica belongs to a live
        # container and the store scrubs clean.
        plan = ReplicationPlan.load(cloud)
        for key in cloud.list(naming.REPLICA_PREFIX):
            _domain, cid = naming.parse_replica_key(key)
            assert cloud.exists(naming.container_key(cid))
            assert plan is not None and cid in plan
        assert scrub_cloud(cloud).clean

    def test_last_survivor_of_live_container_kept(self, replicated):
        cloud, files, _rep = replicated
        victim = cloud.list(naming.CONTAINER_PREFIX)[0]
        cloud.delete(victim)  # replicas are now the only copies
        report = collect_garbage(cloud, retain_sessions=[0])
        assert report.deleted_replicas == 0
        restored, restore_report = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files
        assert restore_report.failovers >= 1

    def test_tenant_manifest_pins_shared_container(self, rng):
        from repro.cloud import NamespacedBackend
        raw = InMemoryBackend()
        view = NamespacedBackend(raw, "t0")
        client = BackupClient(view,
                              aa_dedupe_config(container_size=32 * 1024))
        client.backup(MemorySource(make_files(rng)))
        client.close()
        assert raw.list(naming.CONTAINER_PREFIX)
        # Root GC with nothing retained must not touch data a tenant
        # still references.
        report = collect_garbage(raw, retain_sessions=[])
        assert report.deleted_containers == 0
        assert report.tenant_manifests_marked == 1
        assert raw.list(naming.CONTAINER_PREFIX)
