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
        assert second.replicas_written == second.replicas_removed == 0
        assert len(cloud.list(naming.REPLICA_PREFIX)) \
            == first.replicas_written

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
        assert 0 < len(report.targets) \
            < report.containers_checked


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

    def test_corrupt_primary_with_surviving_replica_is_repairable(
            self, replicated):
        cloud, files, _rep = replicated
        cid = sorted(ReplicationPlan.load(cloud).targets)[0]
        victim = naming.container_key(cid)
        blob = bytearray(cloud.get(victim))
        blob[100] ^= 0x55
        cloud._objects[victim] = bytes(blob)
        report = scrub_cloud(cloud)
        # The data survives in the replica: no PROBLEM, only findings
        # that one repair clears.
        assert not report.problems
        assert {f.kind for f in report.findings} \
            == {"missing_primary", "under_replicated"}
        assert all(f.repairable for f in report.findings)
        assert repair_cloud(cloud).primaries_restored == 1
        assert scrub_cloud(cloud).clean
        assert RestoreClient(cloud).restore_to_memory(0)[0] == files


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
        assert report.ok and report.replicas_written == 1
        assert report.bytes_copied > 0
        assert cloud.exists(victim)
        assert scrub_cloud(cloud).clean

    def test_replaces_corrupt_copy(self, replicated):
        cloud, _files, _rep = replicated
        victim = cloud.list(naming.REPLICA_PREFIX)[0]
        cloud._objects[victim] = b"garbage"
        assert repair_cloud(cloud).replicas_written == 1
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
        assert any(str(cid) in msg for msg in report.problems)

    def test_noop_without_plan(self, store):
        cloud, _files = store
        report = repair_cloud(cloud)
        assert report.ok and report.containers_checked == 0


class _GetLog(InMemoryBackend):
    """Records the key of every GET."""

    def __init__(self) -> None:
        super().__init__()
        self.gets: list = []

    def _get(self, key):
        self.gets.append(key)
        return super()._get(key)


def _copy_gets(cloud) -> list:
    return [key for key in cloud.gets
            if key.startswith((naming.CONTAINER_PREFIX,
                               naming.REPLICA_PREFIX))]


class TestLoweredReplication:
    """Every pass leaves exactly the replicas the plan names."""

    def test_r2_then_r1_removes_every_replica(self, replicated):
        cloud, files, first = replicated
        report = replicate_cloud(
            cloud, policy=DurabilityPolicy(base_replicas=1,
                                           max_replicas=1))
        assert report.replicas_removed == first.replicas_written > 0
        assert report.replicas_written == 0
        assert not cloud.list(naming.REPLICA_PREFIX)
        assert ReplicationPlan.load(cloud) is None
        assert scrub_cloud(cloud).clean
        assert RestoreClient(cloud).restore_to_memory(0)[0] == files

    def test_domain_change_moves_every_replica(self, replicated):
        cloud, files, first = replicated
        report = replicate_cloud(cloud, policy=R2, domains=("e0", "e1"))
        assert report.replicas_removed == first.replicas_written
        keys = cloud.list(naming.REPLICA_PREFIX)
        assert keys and len(keys) == report.replicas_written
        assert {naming.parse_replica_key(key)[0] for key in keys} \
            <= {"e0", "e1"}
        assert scrub_cloud(cloud).clean
        assert RestoreClient(cloud).restore_to_memory(0)[0] == files

    def test_replicate_reads_only_what_it_copies_or_prunes(self, rng):
        cloud = _GetLog()
        client = BackupClient(cloud,
                              aa_dedupe_config(container_size=32 * 1024))
        client.backup(MemorySource(make_files(rng)))
        client.close()
        first = replicate_cloud(cloud, policy=R2, domains=DOMAINS)
        # One GET of each primary it copied from.
        assert sorted(_copy_gets(cloud)) == [
            naming.container_key(cid) for cid in sorted(first.targets)]
        cloud.gets.clear()
        # Everything in place: the LIST vouches for it, nothing is read.
        replicate_cloud(cloud, policy=R2)
        assert _copy_gets(cloud) == []
        # Lowered: each primary is validated once before its replicas
        # go; no replica is read.
        replicate_cloud(cloud, policy=DurabilityPolicy(max_replicas=1))
        assert sorted(_copy_gets(cloud)) == [
            naming.container_key(cid) for cid in sorted(first.targets)]


class TestUnplannedCopies:
    """A replica the plan does not name is a copy until the primary is
    valid again: a pass promotes it, never deletes the last one."""

    @pytest.mark.parametrize("run", [
        repair_cloud,
        lambda cloud: replicate_cloud(cloud, domains=DOMAINS),
    ], ids=["repair", "replicate"])
    def test_only_copy_is_promoted_not_deleted(self, store, run):
        cloud, files = store
        victim = cloud.list(naming.CONTAINER_PREFIX)[0]
        cid = naming.container_id_of(victim)
        blob = cloud.get(victim)
        orphan = naming.replica_key("d9", cid)
        cloud.put(orphan, blob)
        cloud.delete(victim)
        degraded = scrub_cloud(cloud)
        assert not degraded.problems  # refs resolve through the copy
        assert {f.kind for f in degraded.findings} \
            == {"missing_primary", "orphan_replica"}
        report = run(cloud)
        assert report.ok and report.primaries_restored == 1
        assert report.replicas_removed == 1
        assert cloud.get(victim) == blob and not cloud.exists(orphan)
        assert scrub_cloud(cloud).clean
        assert RestoreClient(cloud).restore_to_memory(0)[0] == files

    def test_unreadable_copy_is_kept(self, store):
        from repro.errors import TransientCloudError

        class Flaky(InMemoryBackend):
            def _get(self, key):
                if key.startswith(naming.REPLICA_PREFIX):
                    raise TransientCloudError(key)
                return super()._get(key)

        cloud, _files = store
        flaky = Flaky()
        flaky._objects = cloud._objects
        victim = cloud.list(naming.CONTAINER_PREFIX)[0]
        orphan = naming.replica_key("d9", naming.container_id_of(victim))
        cloud.put(orphan, cloud.get(victim))
        cloud.delete(victim)
        # A failed read is no verdict: the pass stops, the copy stays.
        with pytest.raises(TransientCloudError):
            repair_cloud(flaky)
        assert cloud.exists(orphan)

    def test_replicate_deletes_replicas_of_dead_containers(self, rng):
        cloud = _GetLog()
        client = BackupClient(cloud,
                              aa_dedupe_config(container_size=32 * 1024))
        client.backup(MemorySource(make_files(rng, salt=1)))
        files = make_files(rng, salt=2)
        client.backup(MemorySource(files))
        client.close()
        replicate_cloud(cloud, policy=R2, domains=DOMAINS)
        # A sweep cut short: session 0 and its containers' primaries
        # are gone, their replicas are left behind.
        live = mark_store(StoreWalk(cloud), {1}).containers
        dead = {naming.container_id_of(key)
                for key in cloud.list(naming.CONTAINER_PREFIX)} - set(live)
        assert dead
        cloud.delete(naming.manifest_key(0))
        for cid in dead:
            cloud.delete(naming.container_key(cid))
        leftovers = [key for key in cloud.list(naming.REPLICA_PREFIX)
                     if naming.parse_replica_key(key)[1] in dead]
        assert leftovers
        cloud.gets.clear()
        report = replicate_cloud(cloud, policy=R2)
        # Garbage, not a lost primary: deleted unread, never promoted.
        assert report.replicas_removed == len(leftovers)
        assert report.primaries_restored == 0
        assert not set(leftovers) & set(cloud.gets)
        assert not any(cloud.exists(naming.container_key(cid))
                       for cid in dead)
        assert not set(leftovers) & set(cloud.list(naming.REPLICA_PREFIX))
        assert scrub_cloud(cloud).clean
        assert RestoreClient(cloud).restore_to_memory(1)[0] == files

    def test_repair_removes_junk_replica_keys(self, store):
        cloud, _files = store
        cloud.put(naming.replica_key("d9", 12345), b"whatever")
        cloud.put(naming.REPLICA_PREFIX + "d9/stray", b"whatever")
        kinds = [f.kind for f in scrub_cloud(cloud).findings]
        assert kinds == ["orphan_replica"] * 2
        report = repair_cloud(cloud)
        assert report.ok and report.replicas_removed == 2
        assert report.repaired == 0
        assert not cloud.list(naming.REPLICA_PREFIX)
        assert scrub_cloud(cloud).clean


class _FlakyPlan(InMemoryBackend):
    """Every GET of the replication plan fails transiently."""

    def _get(self, key):
        if key == naming.DURABILITY_PLAN_KEY:
            from repro.errors import TransientCloudError
            raise TransientCloudError(key)
        return super()._get(key)


class TestUnreadablePlan:
    """"Plan unknown" is not "every target is one copy": no pass that
    cannot read the plan deletes a replica."""

    @pytest.fixture(params=["transient", "garbage"])
    def unreadable(self, request, replicated):
        cloud, files, first = replicated
        if request.param == "garbage":
            cloud.put(naming.DURABILITY_PLAN_KEY, b"not a plan")
            return cloud, cloud, files, first
        flaky = _FlakyPlan()
        flaky._objects = cloud._objects
        return flaky, cloud, files, first

    def test_repair_deletes_no_replica(self, unreadable):
        from repro.errors import ReproError
        view, cloud, _files, first = unreadable
        before = cloud.list(naming.REPLICA_PREFIX)
        assert len(before) == first.replicas_written
        with pytest.raises(ReproError):
            repair_cloud(view)
        assert cloud.list(naming.REPLICA_PREFIX) == before

    def test_replicate_keeps_placement_or_raises(self, unreadable):
        from repro.errors import ReproError
        view, cloud, _files, _first = unreadable
        before = cloud.list(naming.REPLICA_PREFIX)
        with pytest.raises(ReproError):
            replicate_cloud(view, policy=R2)
        assert cloud.list(naming.REPLICA_PREFIX) == before

    def test_scrub_reports_the_plan_not_orphans(self, unreadable):
        view, _cloud, _files, _first = unreadable
        report = scrub_cloud(view)
        assert [f.kind for f in report.findings] == ["corrupt_plan"]
        assert report.problems

    def test_explicit_domains_rewrite_a_garbage_plan(self, replicated):
        cloud, files, first = replicated
        cloud.put(naming.DURABILITY_PLAN_KEY, b"not a plan")
        report = replicate_cloud(cloud, policy=R2, domains=DOMAINS)
        assert report.replicas_written == report.replicas_removed == 0
        assert len(cloud.list(naming.REPLICA_PREFIX)) \
            == first.replicas_written
        assert scrub_cloud(cloud).clean
        assert RestoreClient(cloud).restore_to_memory(0)[0] == files


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

    def test_interrupted_sweep_revives_no_dead_primary(self, rng):
        # A sweep cut short after any of its deletes or PUTs leaves
        # nothing repair would write back: scrub finds no lost primary.
        cloud = InMemoryBackend()
        client = BackupClient(cloud,
                              aa_dedupe_config(container_size=32 * 1024))
        client.backup(MemorySource(make_files(rng, salt=1)))
        client.backup(MemorySource(make_files(rng, salt=2)))
        client.close()
        replicate_cloud(cloud, policy=R2, domains=DOMAINS)
        seed = dict(cloud._objects)

        class Cut(InMemoryBackend):
            """Dies at its ``budget``-th mutation."""

            def __init__(self, budget):
                super().__init__()
                self._objects = dict(seed)
                self.budget = budget

            def _spend(self):
                self.budget -= 1
                if self.budget < 0:
                    raise RuntimeError("sweep cut short")

            def _put(self, key, data):
                self._spend()
                super()._put(key, data)

            def _delete(self, key):
                self._spend()
                return super()._delete(key)

        mutations = 0
        while True:
            cut = Cut(mutations)
            try:
                collect_garbage(cut, retain_sessions=[1])
            except RuntimeError:
                pass
            else:
                break
            cut.budget = float("inf")
            kinds = {f.kind for f in scrub_cloud(cut).findings}
            assert "missing_primary" not in kinds, mutations
            assert repair_cloud(cut).primaries_restored == 0, mutations
            assert scrub_cloud(cut).clean, mutations
            mutations += 1
        assert mutations > 3  # manifest, plan, replicas and containers

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
