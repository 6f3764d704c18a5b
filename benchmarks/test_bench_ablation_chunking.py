"""Ablation C — the intelligent (application-adaptive) chunking policy,
plus the fast-chunker head-to-head harness.

Part 1 runs the AA engine with its per-category policy table against
three degenerate policies (everything-WFC, everything-SC,
everything-CDC) on identical snapshots.  The adaptive table should match
the best effectiveness (~all-CDC/all-SC) while approaching the best
throughput (~all-WFC) — i.e. the best *efficiency*, which is the
paper's thesis.

Part 2 races every CDC-family boundary engine (Rabin, Gear, FastCDC,
SeqCDC — see docs/CHUNKING.md) on one versioned-document workload and
reports scan throughput next to the dedup ratio each engine achieves,
so a speedup that silently wrecks the paper's metric is caught here.
Set ``BENCH_SMOKE=1`` to shrink the corpus for CI smoke runs.
"""

import hashlib
import time

import numpy as np
from conftest import SCALE, SMOKE, emit

from repro.chunking import CDC_FAMILY
from repro.chunking.base import get_chunker
from repro.classify.policy import DedupPolicy
from repro.core import aa_dedupe_config
from repro.metrics import Table
from repro.trace.driver import run_paper_evaluation
from repro.util.units import KIB, format_bytes


def _fixed(name: str, chunker: str, hash_name: str, **params):
    return aa_dedupe_config(name=name, policy_table=None,
                            fixed_policy=DedupPolicy(chunker, hash_name,
                                                     params))


def test_adaptive_vs_fixed_chunking(benchmark, workload_snapshots):
    def run():
        schemes = [
            aa_dedupe_config(),
            _fixed("all-WFC", "wfc", "rabin12"),
            _fixed("all-SC", "sc", "md5", chunk_size=8 * KIB),
            _fixed("all-CDC", "cdc", "sha1", avg_size=8 * KIB,
                   min_size=2 * KIB, max_size=16 * KIB),
        ]
        return run_paper_evaluation(scale=SCALE,
                                    snapshots=workload_snapshots,
                                    schemes=schemes)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    up = result.scale_to_paper()
    table = Table(["policy", "stored", "mean DR", "mean DE"],
                  title="Ablation C: adaptive vs fixed chunking policy")
    summary = {}
    for name, run_ in result.runs.items():
        mean_dr = sum(r.stats.dedup_ratio for r in run_.sessions) / len(
            run_.sessions)
        summary[name] = (run_.total_uploaded(), mean_dr,
                         run_.mean_efficiency())
        table.add_row([name,
                       format_bytes(run_.total_uploaded() * up,
                                    decimal=True),
                       mean_dr,
                       format_bytes(run_.mean_efficiency(), decimal=True)
                       + "/s"])
    emit(table.render())

    stored = {n: v[0] for n, v in summary.items()}
    de = {n: v[2] for n, v in summary.items()}
    # The adaptive policy is strictly the most space-efficient.
    assert stored["AA-Dedupe"] == min(stored.values())
    # Whole-file-only dedup wastes gross space (no sub-file redundancy).
    assert stored["all-WFC"] > 2 * stored["AA-Dedupe"]
    # Uniform CDC is compute-bound: less than 60 % of AA's efficiency
    # *and* worse space (forced cuts lose VM-image duplicates).
    assert de["all-CDC"] < 0.6 * de["AA-Dedupe"]
    assert stored["all-CDC"] > 1.1 * stored["AA-Dedupe"]
    # Uniform SC is the strongest degenerate policy on this VM-heavy
    # workload (it is what AA itself picks for the dominant class), yet
    # it still stores measurably more and its DE edge stays small.
    assert stored["all-SC"] > 1.03 * stored["AA-Dedupe"]
    assert de["all-SC"] < 1.25 * de["AA-Dedupe"]
    # Pareto check: no degenerate policy beats AA on both axes at once.
    for name in ("all-WFC", "all-SC", "all-CDC"):
        assert stored[name] > stored["AA-Dedupe"] or \
            de[name] < de["AA-Dedupe"], name


# ---------------------------------------------------------------------------
# Fast-chunker head-to-head: scan throughput vs dedup ratio per engine.



def _versioned_documents(docs, sessions, doc_kib, seed=2011):
    """Documents under light editing across backup sessions — the
    workload where boundary quality shows up as dedup ratio."""
    r = np.random.default_rng(seed)

    def edit(data):
        arr = bytearray(data)
        for _ in range(int(r.integers(2, 7))):
            pos = int(r.integers(0, max(1, len(arr) - 40)))
            arr[pos:pos + 24] = r.integers(0, 256, 24,
                                           dtype=np.uint8).tobytes()
        pos = int(r.integers(0, len(arr) + 1))
        patch = r.integers(0, 256, int(r.integers(16, 80)),
                           dtype=np.uint8).tobytes()
        return bytes(arr[:pos]) + patch + bytes(arr[pos:])

    current = [r.integers(0, 256, doc_kib * 1024, dtype=np.uint8).tobytes()
               for _ in range(docs)]
    versions = []
    for _ in range(sessions):
        versions.extend(current)
        current = [edit(doc) for doc in current]
    return versions


def _race_chunker(chunker, buffers):
    """(throughput MB/s, dedup ratio) for one engine on ``buffers``.

    The timed section is the boundary scan alone (``cut_points``) — the
    loop the fast family exists to accelerate; fingerprinting for the
    dedup ratio happens outside the clock.
    """
    total_bytes = sum(len(b) for b in buffers)
    start = time.perf_counter()
    all_cuts = [chunker.cut_points(data) for data in buffers]
    elapsed = time.perf_counter() - start

    seen = set()
    unique = 0
    for data, cuts in zip(buffers, all_cuts):
        prev = 0
        for cut in cuts:
            digest = hashlib.sha1(data[prev:cut]).digest()
            if digest not in seen:
                seen.add(digest)
                unique += cut - prev
            prev = cut
    return total_bytes / elapsed / 1e6, total_bytes / unique


def test_chunker_head_to_head():
    """Gear/FastCDC must beat the vectorized Rabin scan without giving
    up more than 5% dedup ratio; SeqCDC rides along for scale."""
    if SMOKE:
        versions = _versioned_documents(docs=3, sessions=4, doc_kib=128)
    else:
        versions = _versioned_documents(docs=4, sessions=6, doc_kib=1024)

    results = {}
    table = Table(["chunker", "scan MB/s", "dedup ratio", "vs rabin"],
                  title="Fast-chunker head-to-head "
                        "(versioned-document workload)")
    for name in CDC_FAMILY:
        chunker = get_chunker(name)
        chunker.cut_points(versions[0])            # warm table caches
        results[name] = _race_chunker(chunker, versions)
    rabin_mbps, rabin_ratio = results["cdc"]
    for name in CDC_FAMILY:
        mbps, ratio = results[name]
        table.add_row([name, f"{mbps:.1f}", f"{ratio:.4f}",
                       f"{100.0 * ratio / rabin_ratio - 100.0:+.1f}%"])
    emit(table.render())

    for name in ("gear", "fastcdc"):
        mbps, ratio = results[name]
        assert mbps >= rabin_mbps, (name, mbps, rabin_mbps)
        assert ratio >= 0.95 * rabin_ratio, (name, ratio, rabin_ratio)
    # SeqCDC trades boundary quality bounds for raw scan speed; hold it
    # to the same ratio band so regressions surface, not to the
    # throughput floor (it clears that by an order of magnitude anyway).
    seq_mbps, seq_ratio = results["seqcdc"]
    assert seq_mbps >= rabin_mbps
    assert seq_ratio >= 0.95 * rabin_ratio
