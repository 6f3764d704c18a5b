"""Ablation A — the application-aware index structure (paper Sec. III-E).

Runs AA-Dedupe with its per-application index family versus the same
policy over a single unified (global) index, on identical snapshots:
the unified index outgrows the RAM budget and starts paying random disk
IOs, while every per-application subindex stays resident.
"""

from conftest import SCALE, emit

from repro.core import aa_dedupe_config
from repro.metrics import Table
from repro.trace.driver import run_paper_evaluation
from repro.util.units import format_bytes, format_seconds


def test_app_aware_vs_unified_index(benchmark, workload_snapshots):
    def run():
        return run_paper_evaluation(
            scale=SCALE,
            snapshots=workload_snapshots,
            schemes=[aa_dedupe_config(),
                     aa_dedupe_config(name="AA-unified-index",
                                      index_layout="global")])

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    up = result.scale_to_paper()
    table = Table(["variant", "index entries", "largest ns", "disk IOs",
                   "dedup time", "mean DE"],
                  title="Ablation A: per-application vs unified index")
    for name, run_ in result.runs.items():
        total_ios = sum(r.index_disk_ios for r in run_.sessions)
        dedup = sum(r.dedup_seconds for r in run_.sessions)
        table.add_row([name, "-", "-", f"{total_ios * up:,.0f}",
                       format_seconds(dedup * up),
                       format_bytes(run_.mean_efficiency(), decimal=True)
                       + "/s"])
    emit(table.render())

    aa = result.runs["AA-Dedupe"]
    unified = result.runs["AA-unified-index"]
    # Identical dedup effectiveness (Observation 2: no cross-app dups) —
    # compared on unique payload bytes; uploaded bytes differ slightly
    # because per-app container streams pad their last container each.
    aa_unique = sum(r.stats.bytes_unique for r in aa.sessions)
    unified_unique = sum(r.stats.bytes_unique for r in unified.sessions)
    assert aa_unique == unified_unique
    # …but the unified index pays disk IOs the partitioned one avoids.
    aa_ios = sum(r.index_disk_ios for r in aa.sessions)
    unified_ios = sum(r.index_disk_ios for r in unified.sessions)
    assert aa_ios == 0
    assert unified_ios > 1000
    # Note: AA's own policy (WFC for compressed media) already shrinks
    # the chunk population, so at 35 GB the unified variant only *begins*
    # to spill — the efficiency gap is modest here and widens with
    # dataset size; the dedup-energy gap is already pronounced.
    assert aa.mean_efficiency() > 1.05 * unified.mean_efficiency()
    aa_energy = sum(r.energy_joules for r in aa.sessions)
    unified_energy = sum(r.energy_joules for r in unified.sessions)
    assert unified_energy > 1.1 * aa_energy
    # The spill deepens as the index grows: by the final session the
    # unified variant burns well over 1.5x the dedup energy.
    assert unified.sessions[-1].energy_joules > \
        1.5 * aa.sessions[-1].energy_joules
