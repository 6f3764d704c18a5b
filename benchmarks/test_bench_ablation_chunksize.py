"""Ablation E — average chunk size (paper Sec. III-C).

"In general, the deduplication ratio is inversely proportional to the
average chunk size.  On the other hand, the average chunk size is also
inversely proportional to the space overhead due to file metadata and
chunk index."  This bench sweeps SC chunk size on identical snapshots
and reports both sides of the trade-off, locating the sweet spot the
paper's 8 KB choice sits in.
"""

from conftest import SCALE, emit

from repro.classify import Category, DedupPolicy
from repro.core import aa_dedupe_config
from repro.metrics import Table
from repro.trace.driver import run_paper_evaluation
from repro.util.units import KIB, format_bytes

SIZES = (2 * KIB, 4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB)
_ENTRY_BYTES = 48
_REF_BYTES = 56


def test_chunk_size_sweep(benchmark, workload_snapshots):
    def run():
        schemes = [aa_dedupe_config(
            name=f"SC-{size // KIB}KiB", policy_table=dict.fromkeys(
                Category, DedupPolicy("sc", "md5", {"chunk_size": size})))
            for size in SIZES]
        return run_paper_evaluation(scale=SCALE,
                                    snapshots=workload_snapshots,
                                    schemes=schemes)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    up = result.scale_to_paper()
    table = Table(["chunk size", "mean DR", "stored", "index+recipe "
                   "metadata", "metadata/stored"],
                  title="Ablation E: average chunk size trade-off")
    rows = {}
    for size, (name, run_) in zip(SIZES, result.runs.items()):
        mean_dr = sum(r.stats.dedup_ratio
                      for r in run_.sessions) / len(run_.sessions)
        chunks = sum(r.stats.ops.chunks_produced for r in run_.sessions)
        unique = sum(r.stats.chunks_unique for r in run_.sessions)
        metadata = unique * _ENTRY_BYTES + chunks * _REF_BYTES
        stored = run_.total_uploaded()
        rows[size] = (mean_dr, stored, metadata)
        table.add_row([format_bytes(size), mean_dr,
                       format_bytes(stored * up, decimal=True),
                       format_bytes(metadata * up, decimal=True),
                       f"{metadata / stored:.4f}"])
    emit(table.render())

    # Smaller chunks => better (or equal) dedup ratio...
    drs = [rows[s][0] for s in SIZES]
    assert all(a >= 0.98 * b for a, b in zip(drs, drs[1:]))
    assert drs[0] > drs[-1]
    # ...but strictly more metadata.
    metadata = [rows[s][2] for s in SIZES]
    assert metadata == sorted(metadata, reverse=True)
    # The paper's 8 KiB keeps most of 2 KiB's dedup ratio at ~1/4 of its
    # metadata — and, counting container framing, actually *minimises*
    # total stored bytes: the sweet spot.
    assert rows[8 * KIB][0] > 0.75 * rows[2 * KIB][0]
    assert rows[8 * KIB][2] < 0.4 * rows[2 * KIB][2]
    assert rows[8 * KIB][1] == min(r[1] for r in rows.values())
