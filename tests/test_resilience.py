"""Fault-tolerant transport: chaos injection, retry, session resume.

Everything here runs on a :class:`VirtualClock` — retry backoff and WAN
stalls advance simulated time only, so the suite is instant and every
fault sequence replays deterministically from its seed.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.cloud import (
    ChaosBackend,
    InMemoryBackend,
    LocalDirectoryBackend,
    RetryPolicy,
    SimulatedCloud,
    WANLink,
)
from repro.container.format import ContainerWriter
from repro.core import (
    BackupClient,
    MemorySource,
    RestoreClient,
    SessionJournal,
    aa_dedupe_config,
    collect_garbage,
    naming,
)
from repro.core.scrub import scrub_cloud
from repro.errors import (
    BackupError,
    CloudError,
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
class _FailingContainerBackend(InMemoryBackend):
    """Fails the ``fail_at``-th container PUT (1-based) while armed;
    records every container PUT attempted, in order."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = fail_at
        self.armed = True
        self.attempts = []

    def _put(self, key, data):
        if key.startswith(naming.CONTAINER_PREFIX):
            self.attempts.append(key)
            if self.armed and len(self.attempts) == self.fail_at:
                raise TransientCloudError(f"injected failure: {key}")
        super()._put(key, data)


def _engine_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("aa-")]


class TestPipelinedUploaderFailFast:
    """The pipelined uploader's failure contract, end to end: a
    ``pipeline_uploads`` session whose k-th container PUT fails."""

    FAIL_AT = 3

    @pytest.fixture()
    def files(self):
        # Own generator: the session-wide `rng` stream feeds later tests.
        rng = np.random.default_rng(29)
        return {f"docs/report{i}.doc": rng.integers(
            0, 256, 40_000, dtype=np.uint8).tobytes() for i in range(8)}

    @staticmethod
    def _config(**overrides):
        return aa_dedupe_config(container_size=32 * KIB,
                                pipeline_uploads=True, **overrides)

    def _failed_session(self, files, **overrides):
        cloud = _FailingContainerBackend(self.FAIL_AT)
        client = BackupClient(cloud, self._config(**overrides))
        with pytest.raises(BackupError) as info:
            client.backup(MemorySource(files), session_id=0)
        return cloud, client, info.value

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raises_backup_error_chained_from_cloud_error(self, files,
                                                          workers):
        _, _, error = self._failed_session(files,
                                           parallel_workers=workers)
        assert str(error) == "pipelined upload failed"
        assert isinstance(error.__cause__, CloudError)

    def test_drops_queued_work_after_first_error(self, files):
        for workers in (1, 2):
            cloud, _, _ = self._failed_session(files,
                                               parallel_workers=workers)
            # The failing PUT was the last container PUT attempted.
            assert len(cloud.attempts) == self.FAIL_AT
            assert (len(cloud.list(naming.CONTAINER_PREFIX))
                    == self.FAIL_AT - 1)
            assert cloud.list(naming.MANIFEST_PREFIX) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_thread_left_after_failure(self, files, workers):
        self._failed_session(files, parallel_workers=workers)
        assert _engine_threads() == []

    def test_close_joins_worker_thread_on_success(self, files):
        for workers in (1, 2):
            client = BackupClient(InMemoryBackend(),
                                  self._config(parallel_workers=workers))
            stats = client.backup(MemorySource(files))
            assert _engine_threads() == []
            assert stats.stage_busy_seconds["upload"] > 0.0
            client.close()
            assert _engine_threads() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_client_next_session_restores(self, files, workers):
        # Nothing of the failed session may be deduplicated against:
        # the containers queued behind the failed PUT never went up.
        cloud, client, _ = self._failed_session(files,
                                                parallel_workers=workers)
        cloud.armed = False
        client.backup(MemorySource(files), session_id=1)
        restored, _ = RestoreClient(cloud).restore_to_memory(1)
        assert restored == files
        assert scrub_cloud(cloud).clean

    def test_same_client_resumed_rerun_restores(self, files):
        # The re-run renumbers from the failed run's first container:
        # had the client kept index entries into those ids, new bytes
        # would overwrite a durable container they still point into.
        cloud, client, _ = self._failed_session(files)
        cloud.armed = False
        client.backup(MemorySource(files), session_id=0)
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files
        assert scrub_cloud(cloud).clean

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_rerun_skips_durable_uploads(self, files, workers):
        cloud, _, _ = self._failed_session(files,
                                           parallel_workers=workers)
        durable = set(cloud.list(naming.CONTAINER_PREFIX))
        assert len(durable) == self.FAIL_AT - 1
        cloud.armed = False
        cloud.attempts.clear()
        stats = BackupClient(cloud, self._config(
            parallel_workers=workers)).backup(
                MemorySource(files), session_id=0)
        assert stats.resume_skipped_objects == len(durable)
        assert durable.isdisjoint(cloud.attempts)
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files

    def test_on_success_runs_per_durable_upload(self, files):
        # Each job is "PUT, then journal the key", whole, in order: at
        # every container PUT the journal holds exactly the earlier ones.
        seen = []

        class Recording(InMemoryBackend):
            def _put(self, key, data):
                if key.startswith(naming.CONTAINER_PREFIX):
                    seen.append((key, list(client._journal._done)))
                super()._put(key, data)

        cloud = Recording()
        client = BackupClient(cloud, self._config())
        client.backup(MemorySource(files))
        keys = sorted(cloud.list(naming.CONTAINER_PREFIX))
        assert seen == [(key, keys[:i]) for i, key in enumerate(keys)]
        assert list(client._journal._done) == keys


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
        journal.put("containers/0000000007", b"blob-a")
        journal.put("containers/0000000008", b"blob-b")
        journal.flush()
        again = SessionJournal.load(cloud, 3)
        assert again.resumed
        assert again.first_container_id == 7
        assert again.completed("containers/0000000007", b"blob-a")
        assert not again.completed("containers/0000000007", b"DIFFERENT")
        assert not again.completed("containers/0000000009", b"blob-a")

    @pytest.mark.parametrize("flip", ["payload", "fingerprint"])
    def test_container_vouched_by_table_and_footer(self, flip):
        """A container record vouches for the re-sealed container only
        when it is the same: one payload byte or one descriptor
        fingerprint byte apart, ``completed`` is false."""
        def sealed(payload: bytes, fingerprint: bytes) -> bytes:
            writer = ContainerWriter(7, 16 * KIB)
            writer.append(b"\x01" * 20, b"a" * 3000)
            writer.append(fingerprint, payload)
            return writer.seal()

        payload, fingerprint = bytearray(b"b" * 5000), bytearray(b"\x02" * 20)
        key = naming.container_key(7)
        cloud = InMemoryBackend()
        journal = SessionJournal(cloud, 0, first_container_id=7)
        journal.put(key, sealed(bytes(payload), bytes(fingerprint)))
        journal.flush()
        again = SessionJournal.load(cloud, 0)
        assert again.completed(key, sealed(bytes(payload),
                                           bytes(fingerprint)))
        (payload if flip == "payload" else fingerprint)[3] ^= 0x01
        assert not again.completed(key, sealed(bytes(payload),
                                               bytes(fingerprint)))

    def test_commit_deletes_journal(self):
        cloud = InMemoryBackend()
        journal = SessionJournal(cloud, 0)
        journal.put("k", b"v")
        journal.flush()
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
        journal.commit()
        assert cloud.list(naming.JOURNAL_PREFIX) == []

    def test_maintenance_failures_never_raise(self):
        class NoJournalPuts(InMemoryBackend):
            def _put(self, key, data):
                if key.startswith(naming.JOURNAL_PREFIX):
                    raise TransientCloudError("down")
                super()._put(key, data)

        journal = SessionJournal(NoJournalPuts(), 0)
        journal.put("k", b"v")
        journal.flush()  # fails silently
        assert any("journal flush failed" in w for w in journal.warnings)

    @pytest.mark.parametrize("n", [63, 64, 200])
    def test_one_segment_put_per_64_uploads(self, n):
        cloud = _JournalLog()
        BackupClient(cloud, aa_dedupe_config(container_size=4 * KIB)).backup(
            MemorySource(_media(n)))
        assert len(cloud.list(naming.CONTAINER_PREFIX)) == n
        assert cloud.journal["put"] == cloud.journal["delete"] == n // 64
        assert cloud.journal["get"] == 1
        assert cloud.journal["bytes"] < n * 100
        assert cloud.list(naming.JOURNAL_PREFIX) == []

    def test_resume_loads_segments_and_appends_after_them(self):
        cloud = InMemoryBackend()
        journal = SessionJournal(cloud, 4, first_container_id=9)
        for i in range(130):
            journal.put(f"containers/{i:010d}", b"blob %d" % i)
        assert len(cloud.list(naming.JOURNAL_PREFIX)) == 2
        again = SessionJournal.load(cloud, 4)
        assert again.resumed and again.first_container_id == 9
        assert len(again) == 128  # the last two records were unflushed
        for i in range(130, 194):
            again.put(f"containers/{i:010d}", b"blob %d" % i)
        assert cloud.list(naming.JOURNAL_PREFIX) == [
            naming.journal_key(4, segment) for segment in range(3)]
        assert len(SessionJournal.load(cloud, 4)) == 192
        again.commit()
        assert cloud.list(naming.JOURNAL_PREFIX) == []

    @pytest.mark.parametrize("bad", [0, 1])
    def test_unusable_segment_drops_the_ones_after_it(self, bad):
        # A failed GET of segment ``bad`` ends the load; the segments
        # after it are deleted, so this run's segments never splice
        # onto them, and commit leaves no journal key.
        class Blip(InMemoryBackend):
            blips = 1

            def _get(self, key):
                if key == naming.journal_key(4, bad) and Blip.blips:
                    Blip.blips -= 1
                    raise TransientCloudError("blip")
                return super()._get(key)

        cloud = Blip()
        journal = SessionJournal(cloud, 4, first_container_id=9)
        for i in range(3 * 64):
            journal.put(f"containers/{i:010d}", b"blob %d" % i)
        again = SessionJournal.load(cloud, 4)
        assert again.warnings and len(again) == 64 * bad
        assert cloud.list(naming.JOURNAL_PREFIX) == [
            naming.journal_key(4, n) for n in range(bad)]
        for i in range(1000, 1064):
            again.put(f"containers/{i:010d}", b"blob %d" % i)
        assert len(SessionJournal.load(cloud, 4)) == 64 * (bad + 1)
        again.commit()
        assert cloud.list(naming.JOURNAL_PREFIX) == []

    @pytest.mark.parametrize("lost", [False, True])
    def test_overwrite_revokes_the_record_first(self, lost):
        # A resumed run PUTs other bytes under a recorded key (lost from
        # the store meanwhile, or not), then dies before its next
        # segment: the record no longer vouches.
        cloud = InMemoryBackend()
        key = naming.container_key(0)
        first = SessionJournal(cloud, 2)
        first.put(key, b"old")
        first.flush()
        if lost:
            cloud.delete(key)
        second = SessionJournal.load(cloud, 2)
        second.drop_lost()
        assert not second.completed(key, b"new")
        second.put(key, b"new")  # then a hard kill: no flush
        assert not SessionJournal.load(cloud, 2).completed(key, b"old")


def _media(n, seed=64):
    """``n`` compressed files, each one whole-file chunk larger than a
    4 KiB container, so a 4 KiB-container session makes ``n`` data
    uploads."""
    rng = np.random.default_rng(seed)
    return {f"media/{i:03d}.mp3": rng.integers(
        0, 256, 12_000, dtype=np.uint8).tobytes() for i in range(n)}


def _doomed_backup(store, kill_at):
    """Back ``_media(210)`` up into ``store`` as a new process would,
    and die (``os._exit``: no failure path, no ``finally``) at the
    kill_at-th container PUT."""

    class Dying(LocalDirectoryBackend):
        container_puts = 0

        def _put(self, key, data):
            if key.startswith(naming.CONTAINER_PREFIX):
                Dying.container_puts += 1
                if Dying.container_puts == kill_at:
                    os._exit(0)
            super()._put(key, data)

    client = BackupClient(Dying(store),
                          aa_dedupe_config(container_size=4 * KIB))
    client.backup(MemorySource(_media(210)))
    os._exit(1)


class _JournalLog(InMemoryBackend):
    """Counts journal requests by verb, and the bytes journal PUTs
    carry."""

    def __init__(self):
        super().__init__()
        self.journal = dict.fromkeys(("put", "get", "delete", "bytes"), 0)

    def _log(self, verb, key, size=0):
        if key.startswith(naming.JOURNAL_PREFIX):
            self.journal[verb] += 1
            self.journal["bytes"] += size

    def _put(self, key, data):
        self._log("put", key, len(data))
        super()._put(key, data)

    def _get(self, key):
        self._log("get", key)
        return super()._get(key)

    def _delete(self, key):
        self._log("delete", key)
        return super()._delete(key)


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
        return aa_dedupe_config(container_size=self.CONTAINER)

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

    @pytest.mark.parametrize("route", ["same client", "fresh client",
                                       "older id re-run"])
    def test_later_session_stops_the_rewind(self, rng, route):
        # Session 5 fails, then a later session commits into the
        # container ids after it: 6 (run by the re-running client, or
        # unseen by it: a fresh client), or an explicit re-run of 4
        # before the auto-id re-run of 5.  Rewinding to 5's first
        # container would overwrite that session's, so the re-run
        # starts fresh and deletes 5's stale journal.
        four, five, six = (self._big_files(rng, n=6) for _ in range(3))
        cloud = _CrashBackend(crash_after_containers=0)
        cloud.armed = False
        client = BackupClient(cloud, self._config())
        client.backup(MemorySource(four), session_id=4)
        cloud.crash_after, cloud.armed = cloud.container_puts + 3, True
        with pytest.raises(RuntimeError):
            client.backup(MemorySource(five))
        cloud.armed = False
        if route == "older id re-run":
            four = six
            client.backup(MemorySource(four), session_id=4)
            stats = client.backup(MemorySource(five))
        else:
            client.backup(MemorySource(six), session_id=6)
            if route == "fresh client":
                client = BackupClient(cloud, self._config())
            stats = client.backup(MemorySource(five), session_id=5)
        assert stats.session_id == 5 and stats.resume_skipped_objects == 0
        assert cloud.list(naming.JOURNAL_PREFIX) == []
        for session_id, files in ((4, four), (5, five), (6, six)):
            if route != "older id re-run" or session_id < 6:
                restored, _ = RestoreClient(cloud).restore_to_memory(
                    session_id)
                assert restored == files

    @pytest.mark.parametrize("kill_at", [60, 150])
    def test_hard_kill_resumes_from_flushed_segments(self, tmp_path,
                                                      kill_at):
        # A child process dies (``os._exit``: no failure path, no
        # ``finally``) at its kill_at-th container PUT.  Of the durable
        # uploads before it, only those in flushed segments are skipped.
        cfg = aa_dedupe_config(container_size=4 * KIB)
        store = tmp_path / "store"
        before = {"docs/a.doc": _media(1, seed=1)["media/000.mp3"]}
        BackupClient(LocalDirectoryBackend(store), cfg).backup(
            MemorySource(before))
        files = _media(210)
        child = multiprocessing.get_context("spawn").Process(
            target=_doomed_backup, args=(store, kill_at))
        child.start()
        child.join(timeout=120)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0  # killed mid-session, not finished

        class Counting(LocalDirectoryBackend):
            container_puts = 0

            def _put(self, key, data):
                if key.startswith(naming.CONTAINER_PREFIX):
                    Counting.container_puts += 1
                super()._put(key, data)

        cloud = Counting(store)
        client = BackupClient(cloud, cfg)
        stats = client.backup(MemorySource(files))
        client.close()
        flushed = 64 * ((kill_at - 1) // 64)
        assert stats.session_id == 1
        assert stats.resume_skipped_objects == flushed
        assert Counting.container_puts == len(files) - flushed
        for session_id, expected in ((0, before), (1, files)):
            restored, _ = RestoreClient(cloud).restore_to_memory(session_id)
            assert restored == expected
        assert cloud.list(naming.JOURNAL_PREFIX) == []
        collect_garbage(cloud, retain_sessions=[0, 1])
        report = scrub_cloud(cloud)
        assert report.clean, report.findings


# ---------------------------------------------------------------------------
class TestContainerNumberingUnderFaults:
    """A fresh client numbers containers after those already in the
    cloud, at its first session open; a flaky listing must never
    restart that numbering at 0."""

    @staticmethod
    def _store_with_three_containers(inner=None):
        inner = inner if inner is not None else InMemoryBackend()
        for container_id in range(3):
            inner.put(naming.container_key(container_id), b"live data")
        return inner

    def test_failed_list_raises_instead_of_guessing_zero(self):
        class ContainersDown(InMemoryBackend):
            down = True

            def _list(self, prefix):
                if self.down and prefix == naming.CONTAINER_PREFIX:
                    raise TransientCloudError("injected: list containers/")
                return super()._list(prefix)

        cloud = self._store_with_three_containers(ContainersDown())
        client = BackupClient(cloud, aa_dedupe_config())
        files = {"docs/a.doc": b"x" * 20_000}
        with pytest.raises(CloudError):
            client.backup(MemorySource(files))
        assert naming.session_ids(cloud) == []
        # The failed open left the client unopened: the next session
        # retries it and numbers after the three containers.
        cloud.down = False
        assert client.backup(MemorySource(files)).session_id == 0
        assert cloud.list(naming.CONTAINER_PREFIX)[3:] == [
            naming.container_key(3)]

    def test_retry_absorbs_first_list_failure(self):
        inner = self._store_with_three_containers()
        # Seed 1 at rate 0.5: the first operation (the epoch GET)
        # fails; every fault is retried (asserted via the counts).
        chaos = ChaosBackend(inner, seed=1, transient_error_rate=0.5)
        retry = RetryPolicy()
        client = BackupClient(
            SimulatedCloud(chaos, clock=VirtualClock(), retry=retry),
            aa_dedupe_config())
        warnings = []
        client._open(warnings)
        assert warnings == []
        assert chaos.chaos.transient_errors >= 1
        assert retry.stats.retries == chaos.chaos.transient_errors
        assert client._containers.next_container_id == 3


class TestResumeFromCloudRetries:
    """A fresh client's first open under transient faults reads the GC
    epoch, the manifest listing, every retained manifest and the
    container listing — every request under the cloud facade's retry
    policy — and ends in the state a fault-free open reaches."""

    @pytest.fixture(scope="class")
    def store(self):
        rng = np.random.default_rng(29)
        files = {f"docs/r{i}.doc": rng.integers(
            0, 256, 30_000, dtype=np.uint8).tobytes() for i in range(6)}
        store = InMemoryBackend()
        client = BackupClient(store, aa_dedupe_config(
            container_size=32 * KIB, stat_cache=True))
        for session in range(3):
            files[f"docs/new{session}.txt"] = bytes([session]) * 9_000
            client.backup(MemorySource(files, dict.fromkeys(files, 1)))
        return store

    @staticmethod
    def _resumed(cloud):
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB, stat_cache=True))
        warnings = []
        client._open(warnings)
        assert warnings == []
        return (len(client.index), client._next_session,
                client._prev_manifest.to_json())

    @pytest.mark.parametrize("seed", range(20))
    def test_transient_faults_are_retried(self, store, seed):
        chaos = ChaosBackend(store, seed=seed, transient_error_rate=0.3)
        cloud = SimulatedCloud(chaos, clock=VirtualClock(),
                               retry=RetryPolicy(max_attempts=8))
        assert self._resumed(cloud) == self._resumed(store)


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
            container_size=64 * KIB))
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
