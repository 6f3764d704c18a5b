"""Declarative backup service layer (see docs/SERVICE.md).

The paper's engine backs up one source set when invoked; a backup
*service* runs many named jobs on schedules with retention and
operational hooks.  This package is that orchestration shell:
YAML/dict job specs (:mod:`~repro.service.spec`), interval schedules on
the deterministic virtual clock (:mod:`~repro.service.schedule`),
per-job retention driving the real garbage collector
(:func:`repro.core.retention.apply_retention`), pre/post hooks
(:mod:`~repro.service.hooks`), and the deterministic wave runner
(:mod:`~repro.service.runner`) — all over one shared backend, whose
jobs may share a fleet's dedup directory (:mod:`repro.fleet`).
"""

from repro.service.hooks import (
    HookResult,
    HookSet,
    HookSpec,
    run_hook,
)
from repro.service.runner import (
    BackupService,
    FAILED,
    IN_PROGRESS,
    JobReport,
    SCHEDULED,
    SUCCEEDED,
    ServiceReport,
)
from repro.service.schedule import IntervalSchedule, JobClock
from repro.service.sources import (
    CallableJobSource,
    DirectoryJobSource,
    JobSource,
    SyntheticJobSource,
)
from repro.service.spec import (
    JobSpec,
    ServiceSpec,
    load_config,
    loads_config,
    parse_config,
)

__all__ = [
    "BackupService",
    "CallableJobSource",
    "DirectoryJobSource",
    "FAILED",
    "HookResult",
    "HookSet",
    "HookSpec",
    "IN_PROGRESS",
    "IntervalSchedule",
    "JobClock",
    "JobReport",
    "JobSource",
    "JobSpec",
    "SCHEDULED",
    "SUCCEEDED",
    "ServiceReport",
    "ServiceSpec",
    "SyntheticJobSource",
    "load_config",
    "loads_config",
    "parse_config",
    "run_hook",
]
