"""Ablation B — container size (paper Sec. III-F).

Sweeps the AA-Dedupe container size from 64 KiB to 16 MiB on identical
snapshots.  Small containers multiply PUT requests (request cost + WAN
stalls); huge containers waste padding on the final per-stream seal.
The paper's 1 MB choice sits at the flat bottom of the cost curve —
matching Amazon's guidance that objects should exceed ~100 KB.
"""

from conftest import SCALE, emit

from repro.core import aa_dedupe_config
from repro.metrics import Table
from repro.trace.driver import run_paper_evaluation
from repro.util.units import KIB, MIB, format_bytes


SIZES = (64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB)


def test_container_size_sweep(benchmark, workload_snapshots):
    def run():
        schemes = [aa_dedupe_config(name=f"AA-{size // KIB}KiB",
                                    container_size=size)
                   for size in SIZES]
        return run_paper_evaluation(scale=SCALE,
                                    snapshots=workload_snapshots,
                                    schemes=schemes)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    up = result.scale_to_paper()
    table = Table(["container", "PUT requests", "uploaded", "monthly $",
                   "mean window h"],
                  title="Ablation B: container size sweep (paper-scale)")
    stats = {}
    for size, (name, run_) in zip(SIZES, result.runs.items()):
        puts = run_.total_put_requests() * up
        cost = run_.bill(scale_to_paper=up).total
        window = sum(r.window_seconds for r in run_.sessions) / len(
            run_.sessions) * up / 3600
        stats[size] = (puts, cost, window)
        table.add_row([format_bytes(size), f"{puts:,.0f}",
                       format_bytes(run_.total_uploaded() * up,
                                    decimal=True),
                       cost, window])
    emit(table.render())

    # Bigger containers => strictly fewer requests.
    puts = [stats[s][0] for s in SIZES]
    assert puts == sorted(puts, reverse=True)
    # The paper's 1 MB choice is within 10% of the best cost in the sweep.
    best_cost = min(stats[s][1] for s in SIZES)
    assert stats[1 * MIB][1] <= 1.10 * best_cost
    # Tiny containers are clearly more expensive than 1 MB.
    assert stats[64 * KIB][1] > stats[1 * MIB][1]
