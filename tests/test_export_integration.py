"""Tests for figure export and the simulated-cloud/engine integration."""

import json

import numpy as np
import pytest

from repro.analysis.export import figure_csv, figures_to_json, write_figures
from repro.analysis.figures import paper_figures_7_to_11
from repro.cloud import InMemoryBackend, SimulatedCloud, WANLink
from repro.core import BackupClient, MemorySource, RestoreClient, aa_dedupe_config
from repro.simulate import VirtualClock
from repro.trace import run_paper_evaluation
from repro.util.units import KIB


@pytest.fixture(scope="module")
def figures():
    result = run_paper_evaluation(scale=0.001, sessions=3)
    return paper_figures_7_to_11(result=result)


class TestFigureExport:
    def test_json_document_complete(self, figures):
        doc = figures_to_json(figures)
        assert set(doc["schemes"]) == set(
            doc["fig7_cumulative_storage_bytes"])
        assert len(doc["session_bytes"]) == 3
        for scheme in doc["schemes"]:
            assert len(doc["fig9_backup_window_seconds"][scheme]) == 3
            assert doc["fig10_monthly_cost_usd"][scheme]["total"] > 0
        json.dumps(doc)  # must be serialisable

    def test_csv_rendering(self, figures):
        text = figure_csv(figures.fig8_efficiency)
        lines = text.strip().splitlines()
        assert lines[0].startswith("session,")
        assert len(lines) == 4  # header + 3 sessions

    def test_write_files(self, figures, tmp_path):
        written = write_figures(figures, tmp_path / "out")
        assert len(written) == 6
        doc = json.loads((tmp_path / "out" / "figures.json").read_text())
        assert "fig11_dedup_energy_joules" in doc
        csv_text = (tmp_path / "out" / "fig7_cumulative_storage.csv"
                    ).read_text()
        assert "AA-Dedupe" in csv_text


class TestSimulatedCloudIntegration:
    """The real engine running against the timed/billed cloud facade."""

    def test_backup_accrues_virtual_time_and_bill(self, rng):
        files = {
            "a.doc": rng.integers(0, 256, 30_000,
                                  dtype=np.uint8).tobytes(),
            "b.mp3": rng.integers(0, 256, 40_000,
                                  dtype=np.uint8).tobytes(),
        }
        clock = VirtualClock()
        cloud = SimulatedCloud(InMemoryBackend(), clock=clock,
                               wan=WANLink(concurrent_requests=1))
        client = BackupClient(cloud, aa_dedupe_config(
            container_size=32 * KIB))
        stats = client.backup(MemorySource(files))

        # Virtual WAN time advanced in step with uploaded bytes, plus
        # the session open's four requests of one latency each on an
        # empty store: the GC epoch GET, the manifests/ and containers/
        # LISTs, and the journal GET.
        open_seconds = 4 * 0.08
        assert clock.now() == pytest.approx(
            cloud.upload_seconds + open_seconds)
        expected = (stats.bytes_uploaded / 500_000
                    + stats.put_requests * 0.08)
        assert cloud.upload_seconds == pytest.approx(expected)
        assert cloud.bill() > 0

        # Restore works through the same facade and accrues download time.
        restored, _ = RestoreClient(cloud).restore_to_memory(0)
        assert restored == files
        assert cloud.download_seconds > 0

    def test_bigger_backup_costs_more(self, rng):
        def run(nbytes):
            cloud = SimulatedCloud(InMemoryBackend())
            client = BackupClient(cloud, aa_dedupe_config(
                container_size=32 * KIB))
            client.backup(MemorySource({
                "x.doc": rng.integers(0, 256, nbytes,
                                      dtype=np.uint8).tobytes()}))
            return cloud.bill(), cloud.upload_seconds

        small_bill, small_time = run(20_000)
        big_bill, big_time = run(200_000)
        assert big_bill > small_bill
        assert big_time > small_time
