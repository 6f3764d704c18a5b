"""Fig. 9 — backup window size per session.

Paper shape: Avamar is worst (compute/index-bound — its first full
session even exceeds the plain full-backup transfer window); for every
other scheme the window is transfer-bound; AA-Dedupe is consistently the
shortest.
"""

from conftest import emit

from repro.metrics import Table
from repro.util.units import format_seconds


def test_fig9_backup_window(benchmark, figures, paper_eval):
    series = benchmark.pedantic(lambda: figures.fig9_window,
                                rounds=1, iterations=1)
    schemes = list(series)
    table = Table(["session"] + schemes + ["full-backup"],
                  title="Fig. 9: backup window (paper-scale estimate)")
    up = paper_eval.scale_to_paper()
    full_backup = [nbytes * up / 500_000
                   for nbytes in paper_eval.session_bytes]
    for i in range(len(full_backup)):
        table.add_row([i + 1]
                      + [format_seconds(series[s][i]) for s in schemes]
                      + [format_seconds(full_backup[i])])
    emit(table.render())

    mean = {s: sum(v) / len(v) for s, v in series.items()}
    # AA-Dedupe has the shortest window, in every single session.
    for i in range(len(full_backup)):
        assert all(series["AA-Dedupe"][i] <= series[s][i]
                   for s in schemes)
    # Avamar's initial full session exceeds even a plain full backup
    # ("even worse than the full backup method").
    assert series["Avamar"][0] > full_backup[0]
    # Among the fine-grained dedup schemes Avamar is the slowest, and it
    # is the only scheme whose window is dedup-stage-bound; BackupPC and
    # Jungle Disk are transfer-bound by their whole-file re-uploads.
    assert mean["Avamar"] > mean["SAM"] > mean["AA-Dedupe"]
    dedup_time = {
        s: sum(r.dedup_seconds for r in paper_eval.runs[s].sessions)
        for s in schemes}
    assert dedup_time["Avamar"] == max(dedup_time.values())
