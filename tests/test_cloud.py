"""Tests for cloud backends, WAN model, pricing, and the simulated cloud."""

import pytest

from repro.cloud import (
    InMemoryBackend,
    LocalDirectoryBackend,
    PriceBook,
    S3_APRIL_2011,
    SimulatedCloud,
    WANLink,
)
from repro.errors import CloudError, ObjectNotFound
from repro.util.units import GB, KB, KIB, MB, MIB


class BackendContract:
    """Behavioural contract every backend must satisfy."""

    def make(self, tmp_path):
        raise NotImplementedError

    def test_put_get(self, tmp_path):
        be = self.make(tmp_path)
        be.put("a/b/key1", b"value-1")
        assert be.get("a/b/key1") == b"value-1"

    def test_get_missing_raises(self, tmp_path):
        with pytest.raises(ObjectNotFound):
            self.make(tmp_path).get("ghost")

    def test_overwrite(self, tmp_path):
        be = self.make(tmp_path)
        be.put("k", b"one")
        be.put("k", b"two")
        assert be.get("k") == b"two"

    def test_exists(self, tmp_path):
        be = self.make(tmp_path)
        assert not be.exists("k")
        be.put("k", b"v")
        assert be.exists("k")

    def test_delete(self, tmp_path):
        be = self.make(tmp_path)
        be.put("k", b"v")
        assert be.delete("k")
        assert not be.delete("k")
        assert not be.exists("k")

    def test_list_prefix(self, tmp_path):
        be = self.make(tmp_path)
        be.put("containers/0001", b"x")
        be.put("containers/0002", b"y")
        be.put("manifests/s1", b"z")
        assert be.list("containers/") == ["containers/0001",
                                          "containers/0002"]
        assert len(be.list()) == 3

    def test_stats_accounting(self, tmp_path):
        be = self.make(tmp_path)
        be.put("k", b"12345")
        be.get("k")
        assert be.stats.put_requests == 1
        assert be.stats.get_requests == 1
        assert be.stats.bytes_uploaded == 5
        assert be.stats.bytes_downloaded == 5

    def test_stored_bytes(self, tmp_path):
        be = self.make(tmp_path)
        be.put("a", b"123")
        be.put("b", b"4567")
        assert be.stored_bytes() == 7


class TestInMemoryBackend(BackendContract):
    def make(self, tmp_path):
        return InMemoryBackend()

    def test_object_count(self, tmp_path):
        be = self.make(tmp_path)
        be.put("x", b"1")
        assert be.object_count() == 1


class TestLocalDirectoryBackend(BackendContract):
    def make(self, tmp_path):
        return LocalDirectoryBackend(tmp_path / "store")

    def test_key_traversal_rejected(self, tmp_path):
        be = self.make(tmp_path)
        with pytest.raises(CloudError):
            be.put("../escape", b"x")
        with pytest.raises(CloudError):
            be.put("/abs", b"x")
        with pytest.raises(CloudError):
            be.put("", b"x")
        with pytest.raises(CloudError):  # reserved for in-flight PUTs
            be.put("containers/.tmp-0000000001", b"x")

    def test_files_really_on_disk(self, tmp_path):
        be = self.make(tmp_path)
        be.put("containers/c1", b"blob")
        assert (tmp_path / "store" / "containers" / "c1").read_bytes() == \
            b"blob"


class TestWANLink:
    def test_paper_defaults(self):
        wan = WANLink()
        assert wan.up_bandwidth == 500 * KB
        assert wan.down_bandwidth == 1 * MB

    def test_upload_time_scales(self):
        wan = WANLink(request_latency=0.1, concurrent_requests=1)
        assert wan.upload_time(500 * KB, 1) == pytest.approx(1.1)
        assert wan.upload_time(500 * KB, 10) == pytest.approx(2.0)

    def test_request_concurrency_amortises_latency(self):
        serial = WANLink(request_latency=0.1, concurrent_requests=1)
        pipelined = WANLink(request_latency=0.1, concurrent_requests=4)
        assert pipelined.upload_time(0, 100) == pytest.approx(
            serial.upload_time(0, 100) / 4)

    def test_download_faster_than_upload(self):
        wan = WANLink()
        assert wan.download_time(MB) < wan.upload_time(MB)

    def test_aggregation_improves_goodput(self):
        # The container-management motivation, quantified.
        wan = WANLink(concurrent_requests=1)
        assert wan.effective_upload_rate(1 * MIB) > \
            3 * wan.effective_upload_rate(10 * KIB)

    def test_zero_size(self):
        assert WANLink().effective_upload_rate(0) == 0.0


class TestPriceBook:
    def test_paper_constants(self):
        assert S3_APRIL_2011.storage_per_gb_month == 0.14
        assert S3_APRIL_2011.upload_per_gb == 0.10
        assert S3_APRIL_2011.per_1000_put_requests == 0.01

    def test_monthly_cost_formula(self):
        # CC = DS/DR (SP + TP) + OC*OP with DS/DR = 10 GB, OC = 5000.
        cost = S3_APRIL_2011.monthly_cost(stored_bytes=10 * GB,
                                          uploaded_bytes=10 * GB,
                                          put_requests=5000)
        assert cost == pytest.approx(10 * 0.14 + 10 * 0.10 + 5 * 0.01)

    def test_components(self):
        pb = PriceBook()
        assert pb.storage_cost(GB, months=2) == pytest.approx(0.28)
        assert pb.transfer_cost(GB / 2) == pytest.approx(0.05)
        assert pb.request_cost(100) == pytest.approx(0.001)


class TestSimulatedCloud:
    def test_timing_accumulates(self):
        cloud = SimulatedCloud(InMemoryBackend(), wan=WANLink(
            request_latency=0.1, concurrent_requests=1))
        cloud.put("k", bytes(500 * KB))
        assert cloud.upload_seconds == pytest.approx(1.1)
        cloud.get("k")
        assert cloud.download_seconds == pytest.approx(0.6)
        assert cloud.transfer_seconds() == pytest.approx(1.7)

    def test_virtual_clock_advances(self):
        class Clock:
            t = 0.0

            def advance(self, dt):
                self.t += dt

        clock = Clock()
        cloud = SimulatedCloud(InMemoryBackend(), clock=clock,
                               wan=WANLink(request_latency=0.5,
                                           concurrent_requests=1))
        cloud.put("k", b"")
        assert clock.t == pytest.approx(0.5)

    def test_bill(self):
        cloud = SimulatedCloud(InMemoryBackend())
        cloud.put("k", bytes(1000))
        bill = cloud.bill()
        expected = S3_APRIL_2011.monthly_cost(1000, 1000, 1)
        assert bill == pytest.approx(expected)

    def test_data_really_stored(self):
        cloud = SimulatedCloud(InMemoryBackend())
        cloud.put("key", b"payload")
        assert cloud.get("key") == b"payload"
        assert cloud.exists("key")
        assert cloud.list() == ["key"]
        assert cloud.delete("key")
