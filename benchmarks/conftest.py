"""Shared fixtures for the benchmark harness.

The paper-scale evaluation (10 weekly sessions × 5 schemes) is run once
per pytest session at ``SCALE`` of the 351 GB workload and shared by all
figure benches; byte/cost/time outputs are reported scaled back up to
paper size.  Run with ``-s`` (or rely on the final summary) to see the
regenerated tables next to the paper's reference values.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.figures import PaperFigures, paper_figures_7_to_11
from repro.trace.driver import EvaluationResult, run_paper_evaluation

#: Fraction of the paper's 35.1 GB weekly sessions the trace evaluation
#: simulates (the index RAM budget scales with it, preserving ratios).
SCALE = 0.004
SESSIONS = 10

#: ``BENCH_SMOKE=1`` runs every scale-sensitive bench (fleet, fleet
#: scale, delta, stat cache, durability, chunker head-to-head, pipeline,
#: service) in its down-scaled CI configuration.
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))


@pytest.fixture(scope="session")
def workload_snapshots():
    """The shared weekly workload (generated once per pytest session)."""
    from repro.trace.driver import PAPER_SESSION_BYTES
    from repro.workloads.generator import WorkloadGenerator

    total = int(PAPER_SESSION_BYTES * SCALE)
    generator = WorkloadGenerator(total_bytes=total, seed=2011,
                                  max_mean_file_size=max(64 * 1024,
                                                         total // 40))
    return list(generator.sessions(SESSIONS))


@pytest.fixture(scope="session")
def paper_eval(workload_snapshots) -> EvaluationResult:
    """The five-scheme, ten-session trace evaluation (shared)."""
    return run_paper_evaluation(scale=SCALE, sessions=SESSIONS,
                                snapshots=workload_snapshots)


@pytest.fixture(scope="session")
def figures(paper_eval) -> PaperFigures:
    """All Fig. 7–11 series extracted from the shared evaluation."""
    return paper_figures_7_to_11(result=paper_eval)


def emit(text: str) -> None:
    """Print a regenerated table (pytest shows it with -s / on failure)."""
    print("\n" + text)
