"""Fault-tolerant transport: chaos injection, retry, resumable sessions.

Everything here runs on a :class:`VirtualClock` — retry backoff and WAN
stalls advance simulated time only, so the suite is instant and every
fault sequence replays deterministically from its seed.
"""

import threading
import time

import numpy as np
import pytest

from repro.cloud import (
    ChaosBackend,
    InMemoryBackend,
    RetryPolicy,
    SimulatedCloud,
    WANLink,
)
from repro.core import (
    BackupClient,
    MemorySource,
    RestoreClient,
    SessionJournal,
    aa_dedupe_config,
    naming,
)
from repro.container.manager import ContainerManager
from repro.core.pipeline import BackgroundWorker
from repro.core.scrub import scrub_cloud
from repro.core.sync import IndexSynchronizer
from repro.errors import (
    BackupError,
    CloudError,
    ContainerError,
    ObjectNotFound,
    PermanentCloudError,
    TransientCloudError,
)
from repro.simulate.clock import VirtualClock
from repro.util.units import KIB


@pytest.fixture()
def files(rng):
    return {f"docs/report{i}.doc": rng.integers(
        0, 256, 40_000, dtype=np.uint8).tobytes() for i in range(8)}


# ---------------------------------------------------------------------------
class TestObjectNotFound:
    def test_str_is_readable(self):
        exc = ObjectNotFound("containers/42")
        assert str(exc) == "cloud object not found: 'containers/42'"
        assert exc.key == "containers/42"

    def test_still_a_keyerror_and_clouderror(self):
        with pytest.raises(KeyError):
            InMemoryBackend().get("ghost")
        with pytest.raises(CloudError):
            InMemoryBackend().get("ghost")


# ---------------------------------------------------------------------------
class TestChaosBackend:
    def test_passthrough_when_quiet(self):
        be = ChaosBackend(InMemoryBackend())
        be.put("k", b"v")
        assert be.get("k") == b"v"
        assert be.chaos.total_faults == 0

    def test_transient_errors_are_deterministic(self):
        def run():
            be = ChaosBackend(InMemoryBackend(), seed=7,
                              transient_error_rate=0.3)
            outcomes = []
            for i in range(50):
                try:
                    be.put(f"k{i}", b"x")
                    outcomes.append("ok")
                except TransientCloudError:
                    outcomes.append("fail")
            return outcomes, be.chaos.transient_errors

        assert run() == run()
        outcomes, n = run()
        assert outcomes.count("fail") == n > 0

    def test_transient_put_has_no_side_effect(self):
        be = ChaosBackend(InMemoryBackend(), seed=1,
                          transient_error_rate=1.0)
        with pytest.raises(TransientCloudError):
            be.put("k", b"v")
        assert be.inner._get("k") is None

    def test_lost_ack_stores_then_raises(self):
        be = ChaosBackend(InMemoryBackend(), seed=1, ack_loss_rate=1.0)
        with pytest.raises(TransientCloudError):
            be.put("k", b"v")
        assert be.inner._get("k") == b"v"
        assert be.chaos.lost_acks == 1

    def test_permanent_error_keys(self):
        be = ChaosBackend(InMemoryBackend(),
                          permanent_error_keys={"poison"})
        be.put("fine", b"v")
        with pytest.raises(PermanentCloudError):
            be.put("poison", b"v")
        assert not RetryPolicy.is_retryable(
            pytest.raises(PermanentCloudError, be.get, "poison").value)

    def test_bit_flip_corruption_is_transport_only(self):
        be = ChaosBackend(InMemoryBackend(), seed=3, corrupt_rate=1.0)
        be.inner._put("k", bytes(100))
        corrupted = be.get("k")
        assert corrupted != bytes(100)
        assert len(corrupted) == 100
        # exactly one bit differs
        diff = [a ^ b for a, b in zip(corrupted, bytes(100))]
        assert sum(bin(d).count("1") for d in diff) == 1
        # the stored object is untouched; a clean read would succeed
        assert be.inner._get("k") == bytes(100)

    def test_latency_spikes_accumulate_and_drain(self):
        be = ChaosBackend(InMemoryBackend(), seed=2,
                          latency_spike_rate=1.0,
                          latency_spike_seconds=1.5)
        be.put("k", b"v")
        assert be.chaos.latency_spikes == 1
        assert be.consume_spike_seconds() == pytest.approx(1.5)
        assert be.consume_spike_seconds() == 0.0

    def test_attempts_are_counted_in_backend_stats(self):
        be = ChaosBackend(InMemoryBackend(), seed=1,
                          transient_error_rate=1.0)
        with pytest.raises(TransientCloudError):
            be.put("k", bytes(10))
        # the failed attempt still burned requests and bytes
        assert be.stats.put_requests == 1
        assert be.stats.bytes_uploaded == 10


# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=5, clock=clock, seed=0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientCloudError("blip")
            return "done"

        assert policy.call(flaky) == "done"
        assert calls["n"] == 3
        assert policy.stats.retries == 2
        assert clock.now() == pytest.approx(policy.stats.sleep_seconds)
        assert clock.now() > 0

    def test_exhaustion_raises_original_with_attempt_count(self):
        policy = RetryPolicy(max_attempts=4, clock=VirtualClock(), seed=0)

        def always_fails():
            raise TransientCloudError("the original failure")

        with pytest.raises(TransientCloudError) as info:
            policy.call(always_fails)
        assert "the original failure" in str(info.value)
        assert info.value.retry_attempts == 4
        assert policy.stats.exhausted == 1

    def test_not_found_is_never_retried(self):
        policy = RetryPolicy(max_attempts=5, clock=VirtualClock())
        calls = {"n": 0}

        def missing():
            calls["n"] += 1
            raise ObjectNotFound("ghost")

        with pytest.raises(ObjectNotFound) as info:
            policy.call(missing)
        assert calls["n"] == 1
        assert info.value.retry_attempts == 1

    def test_permanent_error_is_never_retried(self):
        policy = RetryPolicy(max_attempts=5, clock=VirtualClock())
        calls = {"n": 0}

        def denied():
            calls["n"] += 1
            raise PermanentCloudError("403")

        with pytest.raises(PermanentCloudError):
            policy.call(denied)
        assert calls["n"] == 1

    def test_non_cloud_errors_pass_through(self):
        policy = RetryPolicy(max_attempts=5, clock=VirtualClock())
        with pytest.raises(ValueError):
            policy.call(lambda: (_ for _ in ()).throw(ValueError("x")))
        assert policy.stats.retries == 0

    def test_retry_budget_bounds_total_sleep(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=100, base_delay=1.0,
                             max_delay=5.0, retry_budget=10.0,
                             clock=clock, seed=0)
        with pytest.raises(TransientCloudError):
            policy.call(lambda: (_ for _ in ()).throw(
                TransientCloudError("down")))
        assert policy.stats.sleep_seconds <= 10.0
        assert policy.stats.attempts < 100

    def test_backoff_is_decorrelated_jitter(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=6, base_delay=0.2,
                             max_delay=10.0, retry_budget=1e9,
                             clock=clock, seed=42)
        sleeps = []
        orig = policy._sleep

        def spy(seconds):
            sleeps.append(seconds)
            orig(seconds)

        policy._sleep = spy
        with pytest.raises(TransientCloudError):
            policy.call(lambda: (_ for _ in ()).throw(
                TransientCloudError("down")))
        assert len(sleeps) == 5
        assert all(0.2 <= s <= 10.0 for s in sleeps)

    def test_deterministic_given_seed(self):
        def total_sleep(seed):
            clock = VirtualClock()
            policy = RetryPolicy(max_attempts=6, clock=clock, seed=seed)
            with pytest.raises(TransientCloudError):
                policy.call(lambda: (_ for _ in ()).throw(
                    TransientCloudError("down")))
            return clock.now()

        assert total_sleep(9) == total_sleep(9)


# ---------------------------------------------------------------------------
class TestSimulatedCloudResilience:
    def test_retry_absorbs_transient_faults(self):
        clock = VirtualClock()
        cloud = SimulatedCloud(
            ChaosBackend(InMemoryBackend(), seed=11,
                         transient_error_rate=0.4),
            wan=WANLink(), clock=clock,
            retry=RetryPolicy(max_attempts=10, seed=1))
        for i in range(20):
            cloud.put(f"k{i}", b"payload")
        assert [cloud.get(f"k{i}") for i in range(20)] == [b"payload"] * 20
        assert cloud.backend.chaos.transient_errors > 0

    def test_retry_policy_inherits_cloud_clock(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=3)
        SimulatedCloud(InMemoryBackend(), clock=clock, retry=policy)
        assert policy.clock is clock

    def test_failed_attempts_pay_wan_time(self):
        wan = WANLink(request_latency=0.1, concurrent_requests=1,
                      up_bandwidth=1000)
        cloud = SimulatedCloud(
            ChaosBackend(InMemoryBackend(), seed=1,
                         transient_error_rate=1.0),
            wan=wan, clock=VirtualClock())
        with pytest.raises(TransientCloudError):
            cloud.put("k", bytes(1000))
        assert cloud.upload_seconds == pytest.approx(1.1)

    def test_latency_spikes_charged_to_wan_and_clock(self):
        clock = VirtualClock()
        wan = WANLink(request_latency=0.1, concurrent_requests=1,
                      up_bandwidth=1000)
        cloud = SimulatedCloud(
            ChaosBackend(InMemoryBackend(), seed=2,
                         latency_spike_rate=1.0,
                         latency_spike_seconds=2.0),
            wan=wan, clock=clock)
        cloud.put("k", bytes(1000))
        assert cloud.upload_seconds == pytest.approx(1.1 + 2.0)
        assert clock.now() == pytest.approx(1.1 + 2.0)

    @pytest.mark.parametrize("op", ["put", "get", "exists"])
    def test_latency_spikes_drain_identically_across_ops(self, op):
        # A chaos latency spike must land on the virtual clock (and the
        # WAN accounting) the same way no matter which operation
        # triggered it: the spiked run costs exactly the quiet run plus
        # the spike, with nothing left pending in the backend.
        def run(spike_rate):
            clock = VirtualClock()
            wan = WANLink(request_latency=0.1, concurrent_requests=1,
                          up_bandwidth=1000, down_bandwidth=1000)
            chaos = ChaosBackend(InMemoryBackend(), seed=6,
                                 latency_spike_rate=spike_rate,
                                 latency_spike_seconds=2.5)
            chaos.inner._put("k", bytes(1000))  # seed without traffic
            cloud = SimulatedCloud(chaos, wan=wan, clock=clock)
            if op == "put":
                cloud.put("k", bytes(1000))
            elif op == "get":
                assert cloud.get("k") == bytes(1000)
            else:
                assert cloud.exists("k")
            return clock.now(), cloud.transfer_seconds(), chaos

        quiet_clock, quiet_wan, _ = run(0.0)
        spiked_clock, spiked_wan, chaos = run(1.0)
        assert chaos.chaos.latency_spikes == 1
        assert spiked_clock - quiet_clock == pytest.approx(2.5)
        assert spiked_wan - quiet_wan == pytest.approx(2.5)
        assert chaos.consume_spike_seconds() == 0.0  # fully drained

    def test_exists_charges_amortised_request_latency(self):
        # Regression (HEAD parity): an existence probe pays exactly a
        # zero-byte GET — latency amortised across concurrent request
        # slots — not a full un-amortised round trip.
        clock = VirtualClock()
        wan = WANLink(request_latency=0.08, concurrent_requests=4)
        cloud = SimulatedCloud(InMemoryBackend(), wan=wan, clock=clock)
        cloud.put("k", b"v")
        t0 = clock.now()
        down0 = cloud.download_seconds
        assert cloud.exists("k")
        assert clock.now() - t0 == pytest.approx(
            wan.download_time(0, 1)) == pytest.approx(0.02)
        assert cloud.download_seconds - down0 == pytest.approx(0.02)


# ---------------------------------------------------------------------------
def _uploader(put, depth=4):
    """The engine's pipelined uploader: a BackgroundWorker over put."""
    return BackgroundWorker(put, name="test-uploader",
                            what="pipelined upload", depth=depth)


class TestPipelinedUploaderFailFast:
    def test_drops_queued_work_after_first_error(self):
        uploaded, started = [], threading.Event()

        def put(key, blob):
            started.wait(5)
            if key == "bad":
                raise CloudError("boom")
            uploaded.append(key)

        up = _uploader(put, depth=10)
        up.submit("ok-1", b"x")
        up.submit("bad", b"x")
        up.submit("after-1", b"x")
        up.submit("after-2", b"x")
        started.set()
        with pytest.raises(BackupError, match="pipelined upload failed"):
            up.close()
        assert uploaded == ["ok-1"]  # nothing after the failure

    def test_rejects_submit_after_error(self):
        up = _uploader(
            lambda k, b: (_ for _ in ()).throw(CloudError("boom")))
        up.submit("a", b"x")
        # Completion tracking is the outstanding counter (not
        # queue.join()); wait on it until the failed upload lands.
        with up._cond:
            assert up._cond.wait_for(
                lambda: up._outstanding == 0, timeout=5.0)
        with pytest.raises(BackupError):
            up.submit("b", b"x")
        with pytest.raises(BackupError):
            up.check()
        with pytest.raises(BackupError):
            up.close()
        assert not up._thread.is_alive()

    def test_close_joins_worker_thread_on_success(self):
        up = _uploader(lambda k, b: None)
        up.submit("a", b"x")
        up.close()
        assert not up._thread.is_alive()
        up.close()  # idempotent

    def test_on_success_runs_per_durable_upload(self):
        # The engine's job is "PUT, then journal the key": each job
        # runs exactly once, whole, in submission order.
        seen = []

        def upload(key, blob):
            seen.append(("put", key))
            seen.append(("journal", key))

        up = _uploader(upload)
        up.submit("a", b"x")
        up.submit("b", b"y")
        up.close()
        assert seen == [("put", "a"), ("journal", "a"),
                        ("put", "b"), ("journal", "b")]
        assert up.busy_seconds >= 0.0

    def test_reset_accepts_work_again(self):
        ran = []

        def job(key):
            if key == "bad":
                raise CloudError("boom")
            ran.append(key)

        worker = BackgroundWorker(job, name="test-worker", what="job")
        worker.submit("bad")
        with pytest.raises(BackupError, match="job failed"):
            worker.drain()
        worker.reset()
        worker.submit("good")
        worker.close()
        assert ran == ["good"]
        assert not worker._thread.is_alive()


    def test_concurrent_submitters_lose_no_job(self):
        # Stress the outstanding counter: more producers than cores,
        # aggressive thread switching, a tiny queue (constant
        # backpressure).  A lost update would strand drain() or drop
        # a job.
        import sys

        ran = []
        worker = BackgroundWorker(ran.append, name="test-worker",
                                  what="job", depth=2)
        per_thread, n_threads = 200, 16

        def produce(base):
            for i in range(per_thread):
                worker.submit(base + i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=produce,
                                        args=(t * per_thread,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            worker.drain()
        finally:
            sys.setswitchinterval(interval)
        assert worker._outstanding == 0
        assert sorted(ran) == list(range(per_thread * n_threads))
        worker.close()
        assert not worker._thread.is_alive()


class TestAsyncPackFailFast:
    """The same properties through ``ContainerManager(pack_async=True)``,
    whose seal + upload hand-off runs on a BackgroundWorker."""

    @staticmethod
    def _fill(manager, n, start=0):
        # Each add overflows the 4 KiB container, sealing the previous.
        for i in range(start, start + n):
            manager.add(bytes([i]) * 20, bytes([i]) * 3000, stream="s")

    def test_drops_queued_seals_after_first_error(self):
        uploaded, started = [], threading.Event()

        def upload(container_id, blob):
            started.wait(5)
            if container_id == 1:
                raise CloudError("boom")
            uploaded.append(container_id)

        manager = ContainerManager(upload, container_size=4096,
                                   pack_async=True)
        self._fill(manager, 5)  # seals 0..3 queue behind the gate
        started.set()
        with pytest.raises(ContainerError, match="container pack failed"):
            manager.flush()
        assert uploaded == [0]  # nothing after the failure
        manager.close()

    def test_failure_is_reported_once_then_manager_recovers(self):
        fail = {"on": True}
        uploaded = []

        def upload(container_id, blob):
            if fail["on"]:
                raise CloudError("boom")
            uploaded.append(container_id)

        manager = ContainerManager(upload, container_size=4096,
                                   pack_async=True)
        self._fill(manager, 1)
        with pytest.raises(ContainerError) as info:
            manager.flush()
        assert isinstance(info.value.__cause__, CloudError)
        # The next session on the same manager works again.
        fail["on"] = False
        self._fill(manager, 2, start=10)
        manager.flush()
        assert len(uploaded) == 2
        manager.close()

    def test_add_surfaces_async_failure_early(self):
        def upload(container_id, blob):
            if container_id == 0:
                raise CloudError("boom")

        manager = ContainerManager(upload, container_size=4096,
                                   pack_async=True)
        self._fill(manager, 2)  # second add seals the first container
        packer = manager._packer
        with packer._cond:
            assert packer._cond.wait_for(
                lambda: packer._outstanding == 0, timeout=5.0)
        with pytest.raises(ContainerError):
            manager.add(b"f" * 20, b"x" * 100, stream="s")
        manager.close()

    def test_close_joins_pack_thread(self):
        sealed = []
        manager = ContainerManager(
            lambda cid, blob: sealed.append(cid),
            container_size=4096, pack_async=True)
        self._fill(manager, 3)
        manager.close()
        assert sealed == [0, 1, 2]
        assert manager.pack_busy_seconds > 0.0
        assert not manager._packer._thread.is_alive()
        manager.close()  # idempotent

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_pack_worker_raises_instead_of_hanging(self):
        manager = ContainerManager(lambda cid, blob: None,
                                   container_size=4096, pack_async=True)
        manager._packer._queue.put(object())  # poison: kills the thread
        manager._packer._thread.join(5.0)
        self._fill(manager, 1)
        with pytest.raises(ContainerError, match="worker died"):
            manager.flush()


# ---------------------------------------------------------------------------
class _FlakyIndexBackend(InMemoryBackend):
    """Fails every put under index/ while ``failing`` is True."""

    def __init__(self):
        super().__init__()
        self.failing = False

    def _put(self, key, data):
        if self.failing and key.startswith(naming.INDEX_PREFIX):
            raise TransientCloudError("index replica put failed")
        super()._put(key, data)


class TestIndexSyncDegradation:
    def test_push_failure_degrades_to_warning(self, files):
        cloud = _FlakyIndexBackend()
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB))
        cloud.failing = True
        stats = client.backup(MemorySource(files), session_id=0)
        assert stats.files_total == len(files)
        assert any("index sync failed" in w for w in stats.warnings)
        assert cloud.list(naming.INDEX_PREFIX) == []

    def test_failed_push_retried_on_next_sync(self, files):
        cloud = _FlakyIndexBackend()
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB))
        cloud.failing = True
        client.backup(MemorySource(files), session_id=0)
        cloud.failing = False
        stats = client.backup(MemorySource(files), session_id=1)
        assert stats.warnings == []
        assert cloud.list(naming.INDEX_PREFIX) != []

    def test_partial_push_keeps_successes(self):
        # Subindices after the failing one still replicate; only the
        # failed one stays stale (and is retried next push).
        from repro.index.appaware import AppAwareIndex
        from repro.index.base import IndexEntry

        class OnePoisonBackend(InMemoryBackend):
            def _put(self, key, data):
                if key == naming.index_key("bad"):
                    raise TransientCloudError("nope")
                super()._put(key, data)

        cloud = OnePoisonBackend()
        index = AppAwareIndex()
        for app in ("aaa", "bad", "zzz"):
            index.subindex(app).insert(IndexEntry(
                fingerprint=app.encode() * 4, container_id=0,
                offset=0, length=1))
        sync = IndexSynchronizer(cloud)
        with pytest.raises(CloudError, match="index sync incomplete"):
            sync.push(index)
        stored = cloud.list(naming.INDEX_PREFIX)
        assert naming.index_key("aaa") in stored
        assert naming.index_key("zzz") in stored
        assert naming.index_key("bad") not in stored
        # the failed subindex is re-pushed once the fault clears
        cloud.__class__ = InMemoryBackend
        assert sync.push(index) == 1
        assert naming.index_key("bad") in cloud.list(naming.INDEX_PREFIX)


# ---------------------------------------------------------------------------
class TestSessionJournal:
    def test_fresh_when_absent(self):
        journal = SessionJournal.load(InMemoryBackend(), 0,
                                      first_container_id=5)
        assert not journal.resumed
        assert journal.first_container_id == 5
        assert len(journal) == 0

    def test_round_trip(self):
        cloud = InMemoryBackend()
        journal = SessionJournal(cloud, 3, first_container_id=7)
        journal.record("containers/0000000007", b"blob-a")
        journal.record("containers/0000000008", b"blob-b")
        again = SessionJournal.load(cloud, 3)
        assert again.resumed
        assert again.first_container_id == 7
        assert again.completed("containers/0000000007", b"blob-a")
        assert not again.completed("containers/0000000007", b"DIFFERENT")
        assert not again.completed("containers/0000000009", b"blob-a")

    def test_commit_deletes_journal(self):
        cloud = InMemoryBackend()
        journal = SessionJournal(cloud, 0)
        journal.record("k", b"v")
        assert cloud.list(naming.JOURNAL_PREFIX)
        journal.commit()
        assert cloud.list(naming.JOURNAL_PREFIX) == []

    def test_corrupt_journal_degrades_to_fresh(self):
        cloud = InMemoryBackend()
        cloud.put(naming.journal_key(0), b"{not json")
        journal = SessionJournal.load(cloud, 0, first_container_id=2)
        assert not journal.resumed
        assert journal.first_container_id == 2
        assert journal.warnings

    def test_maintenance_failures_never_raise(self):
        class NoPuts(InMemoryBackend):
            def _put(self, key, data):
                raise TransientCloudError("down")

        journal = SessionJournal(NoPuts(), 0)
        journal.record("k", b"v")  # flush fails silently
        assert any("journal flush failed" in w for w in journal.warnings)


# ---------------------------------------------------------------------------
class _CrashBackend(InMemoryBackend):
    """Simulates the process dying after N successful container puts."""

    def __init__(self, crash_after_containers):
        super().__init__()
        self.crash_after = crash_after_containers
        self.container_puts = 0
        self.armed = True
        #: container payload bytes offered, per run phase
        self.container_bytes_put = 0

    def _put(self, key, data):
        if key.startswith(naming.CONTAINER_PREFIX):
            if self.armed and self.container_puts >= self.crash_after:
                raise RuntimeError("simulated crash (power loss)")
            self.container_puts += 1
            self.container_bytes_put += len(data)
        super()._put(key, data)


class TestResumableSessions:
    CONTAINER = 32 * KIB

    def _config(self):
        return aa_dedupe_config(container_size=self.CONTAINER,
                                resumable=True)

    def _big_files(self, rng, n=24):
        return {f"docs/f{i:02d}.doc": rng.integers(
            0, 256, 36_000, dtype=np.uint8).tobytes() for i in range(n)}

    def test_resume_after_crash_is_byte_identical_and_cheap(self, rng):
        files = self._big_files(rng)
        # Size the crash so ~85 % of the containers made it up before
        # the power went out (dry run on a scratch store to count them).
        dry = InMemoryBackend()
        BackupClient(dry, self._config()).backup(MemorySource(files))
        total_containers = len(dry.list(naming.CONTAINER_PREFIX))
        crash_after = int(total_containers * 0.85)

        cloud = _CrashBackend(crash_after_containers=crash_after)
        client = BackupClient(cloud, self._config())
        with pytest.raises(RuntimeError, match="simulated crash"):
            client.backup(MemorySource(files), session_id=0)
        assert cloud.container_puts == crash_after
        assert cloud.list(naming.JOURNAL_PREFIX)  # interrupted marker

        # Fresh client (process restart), same source, same session id.
        cloud.armed = False
        first_run_bytes = cloud.container_bytes_put
        cloud.container_bytes_put = 0
        resumed = BackupClient(cloud, self._config())
        stats = resumed.backup(MemorySource(files), session_id=0)

        # The journal skipped every durable container; the re-run
        # re-uploaded under 20 % of the session's container bytes.
        assert stats.resume_skipped_objects == crash_after
        total_container_bytes = first_run_bytes + cloud.container_bytes_put
        assert cloud.container_bytes_put < 0.2 * total_container_bytes

        # Converged store: byte-identical restore, clean scrub, no
        # journal left behind.
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files
        report = scrub_cloud(cloud)
        assert report.clean, report.problems
        assert cloud.list(naming.JOURNAL_PREFIX) == []

    def test_resume_reuses_container_ids(self, rng):
        files = self._big_files(rng, n=12)
        cloud = _CrashBackend(crash_after_containers=6)
        with pytest.raises(RuntimeError):
            BackupClient(cloud, self._config()).backup(
                MemorySource(files), session_id=0)
        ids_before = set(cloud.list(naming.CONTAINER_PREFIX))
        cloud.armed = False
        BackupClient(cloud, self._config()).backup(
            MemorySource(files), session_id=0)
        # every crashed-run container is referenced, none orphaned
        assert ids_before <= set(cloud.list(naming.CONTAINER_PREFIX))
        report = scrub_cloud(cloud)
        assert report.clean, report.problems

    def test_completed_session_leaves_no_journal(self, rng):
        files = self._big_files(rng, n=4)
        cloud = InMemoryBackend()
        client = BackupClient(cloud, self._config())
        stats = client.backup(MemorySource(files))
        assert stats.resume_skipped_objects == 0
        assert cloud.list(naming.JOURNAL_PREFIX) == []

    def test_resumable_off_by_default(self, rng):
        assert aa_dedupe_config().resumable is False

    def test_pipelined_resume(self, rng):
        # Journal recording also works on the pipelined upload path
        # (records happen on the worker thread, after the durable put).
        files = self._big_files(rng, n=12)
        cloud = _CrashBackend(crash_after_containers=6)
        cfg = self._config().with_(pipeline_uploads=True)
        with pytest.raises((BackupError, RuntimeError)):
            BackupClient(cloud, cfg).backup(MemorySource(files),
                                            session_id=0)
        cloud.armed = False
        stats = BackupClient(cloud, cfg).backup(MemorySource(files),
                                                session_id=0)
        assert stats.resume_skipped_objects == 6
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files
        assert scrub_cloud(cloud).clean


# ---------------------------------------------------------------------------
class TestContainerNumberingUnderFaults:
    """A fresh client numbers containers after those already in the
    cloud; a flaky listing must never restart that numbering at 0."""

    @staticmethod
    def _store_with_three_containers():
        inner = InMemoryBackend()
        for container_id in range(3):
            inner.put(naming.container_key(container_id), b"live data")
        return inner

    def test_failed_list_raises_instead_of_guessing_zero(self):
        inner = self._store_with_three_containers()
        chaos = ChaosBackend(inner, transient_error_rate=1.0)
        with pytest.raises(CloudError):
            BackupClient(chaos, aa_dedupe_config())
        assert chaos.chaos.transient_errors == 1

    def test_retry_absorbs_first_list_failure(self):
        inner = self._store_with_three_containers()
        # Seed 1 at rate 0.5: the first operation fails, the second
        # does not (asserted below via the fault count).
        chaos = ChaosBackend(inner, seed=1, transient_error_rate=0.5)
        retry = RetryPolicy(clock=VirtualClock())
        client = BackupClient(chaos, aa_dedupe_config(), retry=retry)
        assert chaos.chaos.transient_errors == 1
        assert retry.stats.retries == 1
        assert client._containers.next_container_id == 3


class _SlowManifestBackend(InMemoryBackend):
    """Manifest PUTs take 20 ms; everything else is instant."""

    def _put(self, key, data):
        if key.startswith(naming.MANIFEST_PREFIX):
            time.sleep(0.02)
        super()._put(key, data)


class TestUploadWallSeconds:
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_counts_the_manifest_put(self, pipelined):
        # An empty source uploads nothing but the manifest, which used
        # to be PUT after upload_wall_seconds had been sampled.
        client = BackupClient(_SlowManifestBackend(), aa_dedupe_config(
            pipeline_uploads=pipelined))
        stats = client.backup(MemorySource({}))
        client.close()
        assert stats.put_requests == 1
        assert stats.upload_wall_seconds >= 0.02


# ---------------------------------------------------------------------------
class TestChaosBackupAcceptance:
    """The ISSUE's end-to-end acceptance scenario."""

    def test_aa_dedupe_completes_under_paper_wan_chaos(self, rng):
        files = {f"docs/f{i:02d}.doc": rng.integers(
            0, 256, 50_000, dtype=np.uint8).tobytes() for i in range(10)}
        clock = VirtualClock()
        chaos = ChaosBackend(InMemoryBackend(), seed=2011,
                             transient_error_rate=0.05,
                             latency_spike_rate=0.02,
                             latency_spike_seconds=3.0)
        retry = RetryPolicy(max_attempts=8, seed=4, clock=clock)
        cloud = SimulatedCloud(chaos, clock=clock, retry=retry)
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=64 * KIB, resumable=True))
        stats = client.backup(MemorySource(files))

        assert stats.files_total == len(files)
        assert chaos.chaos.transient_errors > 0   # faults really fired
        assert retry.stats.retries >= chaos.chaos.transient_errors
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files
        report = scrub_cloud(cloud)
        assert report.clean, report.problems
        # all sleeps/stalls landed on the virtual clock, instantly
        assert clock.now() > cloud.transfer_seconds() - 1e-9

    def test_deterministic_replay(self, rng):
        files = {f"a/f{i}.doc": rng.integers(
            0, 256, 30_000, dtype=np.uint8).tobytes() for i in range(6)}

        def run():
            clock = VirtualClock()
            chaos = ChaosBackend(InMemoryBackend(), seed=5,
                                 transient_error_rate=0.2)
            cloud = SimulatedCloud(
                chaos, clock=clock,
                retry=RetryPolicy(max_attempts=8, seed=5, clock=clock))
            BackupClient(cloud, aa_dedupe_config(
                container_size=64 * KIB)).backup(MemorySource(files))
            return (clock.now(), chaos.chaos.transient_errors,
                    cloud.stats.put_requests)

        first, second = run(), run()
        assert first[1:] == second[1:]
        # The manifest embeds a wall-clock creation timestamp whose
        # repr length can differ by a byte or two between runs; the
        # fault sequence and every request count replay exactly.
        assert first[0] == pytest.approx(second[0], abs=1e-3)
