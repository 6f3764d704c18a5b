"""The paper's evaluation, end to end (Sec. IV / Figs. 7–11).

:func:`run_paper_evaluation` generates the 10-weekly-full-backup
workload, runs all five schemes over it with the trace engine, and
prices every session on the virtual platform models, yielding for each
(scheme, session):

* dedup-stage time and throughput DT (CPU + data read + index disk IO),
* WAN transfer time and the pipelined backup window
  ``max(dedup, transfer)``,
* dedup efficiency DE = bytes saved per second (the paper's metric),
* energy of the dedup phase,
* cumulative cloud storage and the monthly bill.

**Scaling.**  The default run uses a scaled-down dataset
(``scale × 35.1 GB`` per session) with the index RAM budget scaled by
the same factor; every quantity the figures compare is a ratio of
per-byte and per-entry costs, so the ranking and relative magnitudes are
scale-invariant, while absolute byte/cost outputs are reported scaled
back up to paper size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines import all_scheme_configs
from repro.cloud.pricing import CostBreakdown, PriceBook, S3_APRIL_2011
from repro.cloud.wan import PAPER_WAN, WANLink
from repro.core.options import SchemeConfig
from repro.core.stats import SessionStats
from repro.simulate.cpumodel import CPUModel, PAPER_CPU, dedup_cpu_seconds
from repro.simulate.diskmodel import DiskModel, IndexResidencyModel, PAPER_DISK
from repro.simulate.pipeline import backup_window, dedup_throughput
from repro.simulate.powermodel import PAPER_POWER, PowerModel
from repro.trace.engine import TraceBackupClient
from repro.util.units import GB
from repro.workloads.compose import Snapshot
from repro.workloads.generator import WorkloadGenerator

__all__ = ["SessionRecord", "SchemeRun", "EvaluationResult",
           "run_paper_evaluation", "PAPER_SESSION_BYTES"]

#: The paper's workload: 351 GB over 10 weekly full backups.
PAPER_SESSION_BYTES = 35.1 * GB


@dataclass
class SessionRecord:
    """All derived quantities for one (scheme, session) cell."""

    stats: SessionStats
    dedup_seconds: float
    transfer_seconds: float
    window_seconds: float
    dedup_throughput: float
    #: DE — bytes saved per second (the paper's efficiency metric).
    efficiency: float
    energy_joules: float
    cumulative_uploaded: int
    index_disk_ios: float


@dataclass
class SchemeRun:
    """One scheme's 10-session trajectory."""

    config: SchemeConfig
    sessions: List[SessionRecord] = field(default_factory=list)

    def total_uploaded(self) -> int:
        """Cumulative cloud bytes after the last session (Fig. 7 end)."""
        return self.sessions[-1].cumulative_uploaded if self.sessions else 0

    def total_put_requests(self) -> int:
        """Total PUT requests across all sessions."""
        return sum(r.stats.put_requests for r in self.sessions)

    def mean_efficiency(self) -> float:
        """Average DE across sessions."""
        if not self.sessions:
            return 0.0
        return sum(r.efficiency for r in self.sessions) / len(self.sessions)

    def bill(self, prices: PriceBook = S3_APRIL_2011,
             scale_to_paper: float = 1.0) -> CostBreakdown:
        """Fig. 10: one month's bill after the whole backup series."""
        uploaded = self.total_uploaded() * scale_to_paper
        return prices.breakdown(
            uploaded, uploaded,
            int(self.total_put_requests() * scale_to_paper))


@dataclass
class EvaluationResult:
    """Everything the figures need, for every scheme."""

    runs: Dict[str, SchemeRun]
    session_bytes: List[int]
    scale: float

    @property
    def scheme_names(self) -> List[str]:
        """Scheme names in presentation order."""
        return list(self.runs)

    def scale_to_paper(self) -> float:
        """Multiplier taking scaled bytes back to paper-scale bytes."""
        return 1.0 / self.scale if self.scale > 0 else 1.0


def run_paper_evaluation(
        scale: float = 0.01,
        sessions: int = 10,
        schemes: Optional[Sequence[SchemeConfig]] = None,
        seed: int = 2011,
        cpu: CPUModel = PAPER_CPU,
        disk: DiskModel = PAPER_DISK,
        wan: WANLink = PAPER_WAN,
        power: PowerModel = PAPER_POWER,
        residency: Optional[IndexResidencyModel] = None,
        snapshots: Optional[List[Snapshot]] = None,
) -> EvaluationResult:
    """Run the full comparison; see module docstring.

    ``scale`` shrinks the workload *and* the index RAM budget together.
    Pass ``snapshots`` to evaluate a pre-generated workload (used by the
    ablation benches so every variant sees identical data).
    """
    if schemes is None:
        schemes = all_scheme_configs()
    if residency is None:
        base = IndexResidencyModel()
        residency = IndexResidencyModel(
            ram_budget=max(1, int(base.ram_budget * scale)),
            entry_bytes=base.entry_bytes,
            ios_per_miss=base.ios_per_miss)
    if snapshots is None:
        total = int(PAPER_SESSION_BYTES * scale)
        generator = WorkloadGenerator(
            total_bytes=total, seed=seed,
            max_mean_file_size=max(64 * 1024, total // 40))
        snapshots = list(generator.sessions(sessions))

    runs: Dict[str, SchemeRun] = {}
    for config in schemes:
        client = TraceBackupClient(config, residency=residency)
        run = SchemeRun(config=config)
        for snapshot in snapshots:
            stats = client.backup(snapshot)
            disk_ios = client.disk_ios_last_session
            dedup_seconds = (
                dedup_cpu_seconds(stats.ops, cpu, files=stats.files_total)
                + disk.read_seconds(stats.ops.read_bytes)
                + disk.random_io_seconds(disk_ios))
            transfer_seconds = wan.upload_time(stats.bytes_uploaded,
                                               stats.put_requests)
            window = backup_window(dedup_seconds, transfer_seconds,
                                   pipelined=True)
            run.sessions.append(SessionRecord(
                stats=stats,
                dedup_seconds=dedup_seconds,
                transfer_seconds=transfer_seconds,
                window_seconds=window,
                dedup_throughput=dedup_throughput(stats.bytes_scanned,
                                                  dedup_seconds),
                efficiency=(stats.bytes_saved / dedup_seconds
                            if dedup_seconds > 0 else 0.0),
                energy_joules=power.dedup_energy_joules(dedup_seconds),
                cumulative_uploaded=client.cumulative_uploaded,
                index_disk_ios=disk_ios,
            ))
        runs[config.name] = run
    return EvaluationResult(runs=runs, scale=scale,
                            session_bytes=[s.total_bytes()
                                           for s in snapshots])
