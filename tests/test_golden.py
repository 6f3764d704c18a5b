"""Golden-file tests: profile rendering, one benchmark table and the
paper's Figs. 7–11.

Each golden under ``tests/golden/`` is byte-compared against output
regenerated from a fully seeded, virtual-clock recipe, so any change to
trace semantics, profile aggregation, table formatting, or the workload
model shows up as a reviewable diff.  Regenerate after an intentional
change with::

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import table1_redundancy
from repro.analysis.export import figures_to_json
from repro.analysis.figures import paper_figures_7_to_11
from repro.cli import main
from repro.cloud import InMemoryBackend, SimulatedCloud
from repro.core import BackupClient, MemorySource, aa_dedupe_config
from repro.metrics import Table
from repro.obs import MetricsRegistry, Tracer, load_spans, render_profile
from repro.simulate.clock import VirtualClock
from repro.trace.driver import run_paper_evaluation
from repro.util.units import KIB

GOLDEN_DIR = Path(__file__).parent / "golden"
TRACE_GOLDEN = GOLDEN_DIR / "session_trace.jsonl"
PROFILE_GOLDEN = GOLDEN_DIR / "trace_profile.txt"
TABLE1_GOLDEN = GOLDEN_DIR / "table1_small.txt"
FIGURES_GOLDEN = GOLDEN_DIR / "paper_figures.json"


def _golden_dataset():
    rng = np.random.default_rng(0xAA)

    def blob(n):
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    doc = blob(60_000)
    return {
        "music/song.mp3": blob(50_000),
        "docs/report.doc": doc,
        "docs/report_v2.doc": doc[:30_000] + b"EDITED" + doc[30_000:],
        "vm/image.vmdk": blob(100_000),
        "misc/readme.txt": blob(12_000),
        "misc/tiny.txt": blob(512),
    }


def generate_trace_jsonl() -> str:
    """One AA-Dedupe session on a virtual clock, traced; returns JSONL.

    A simulated run has no wall-clock inputs at all (manifests are
    stamped with virtual time), so the byte-identical comparison doubles
    as a guard against wall-clock state leaking into simulation output.
    """
    clock = VirtualClock()
    tracer = Tracer(clock=clock, metrics=MetricsRegistry())
    cloud = SimulatedCloud(InMemoryBackend(), clock=clock,
                           tracer=tracer)
    client = BackupClient(
        cloud, aa_dedupe_config(container_size=64 * KIB),
        tracer=tracer)
    client.backup(MemorySource(_golden_dataset()))
    client.close()
    return tracer.export_jsonl()


def generate_table1_text() -> str:
    """Small-scale Table 1 rendered exactly like the bench harness."""
    rows = table1_redundancy(total_bytes=12_000_000, seed=2011)
    table = Table(["app", "dataset", "SC DR", "CDC DR"],
                  title="Table 1 (12MB synthetic): sub-file redundancy "
                        "by application")
    for r in rows:
        table.add_row([r.app, f"{r.dataset_bytes / 1e6:.2f}MB",
                       f"{r.sc_dr:.3f}", f"{r.cdc_dr:.3f}"])
    return table.render() + "\n"


def generate_paper_figures_json() -> str:
    """Figs. 7–11 of the trace-driven paper evaluation at 0.4 % scale."""
    figures = paper_figures_7_to_11(
        result=run_paper_evaluation(scale=0.004))
    return json.dumps(figures_to_json(figures), indent=1) + "\n"


# ---------------------------------------------------------------------------
class TestTraceProfileGolden:
    def test_trace_regenerates_byte_identically(self):
        assert generate_trace_jsonl() == TRACE_GOLDEN.read_text()

    def test_render_matches_golden(self):
        spans = load_spans(TRACE_GOLDEN.read_text())
        assert render_profile(spans) + "\n" == PROFILE_GOLDEN.read_text()

    def test_cli_trace_profile_matches_golden(self, capsys):
        assert main(["trace-profile", str(TRACE_GOLDEN)]) == 0
        assert capsys.readouterr().out == PROFILE_GOLDEN.read_text()

    def test_cli_trace_profile_missing_file(self, capsys):
        assert main(["trace-profile", str(GOLDEN_DIR / "nope.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_golden_profile_sums_to_window(self):
        from repro.obs import stage_breakdown

        profile = stage_breakdown(load_spans(TRACE_GOLDEN.read_text()))
        assert profile.window_seconds > 0
        assert profile.accounted_seconds == pytest.approx(
            profile.window_seconds, abs=1e-9)


class TestBenchTableGolden:
    def test_table1_small_matches_golden(self):
        assert generate_table1_text() == TABLE1_GOLDEN.read_text()


class TestPaperFiguresGolden:
    def test_figures_7_to_11_match_golden(self):
        assert generate_paper_figures_json() == FIGURES_GOLDEN.read_text()


# ---------------------------------------------------------------------------
if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("usage: python tests/test_golden.py --regen")
    GOLDEN_DIR.mkdir(exist_ok=True)
    TRACE_GOLDEN.write_text(generate_trace_jsonl())
    PROFILE_GOLDEN.write_text(
        render_profile(load_spans(TRACE_GOLDEN.read_text())) + "\n")
    TABLE1_GOLDEN.write_text(generate_table1_text())
    FIGURES_GOLDEN.write_text(generate_paper_figures_json())
    print(f"regenerated goldens under {GOLDEN_DIR}")
