"""Interval schedules evaluated on the service's deterministic clock.

The declarative service layer schedules jobs the way the exemplar
backup-plan schema does — ``{frequencyInSeconds, offset}`` — rather than
cron strings: an interval/offset pair has exact arithmetic on the
:class:`~repro.simulate.clock.VirtualClock`, so a whole multi-job
service loop replays bit-identically in tests and benchmarks.  A job's
occurrences are ``offset, offset + interval, offset + 2·interval, …``;
the scheduler (:class:`repro.service.runner.BackupService`) advances the
clock to the earliest pending occurrence and runs every job due there as
one wave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

__all__ = ["IntervalSchedule", "JobClock"]


@dataclass(frozen=True)
class IntervalSchedule:
    """Occurrences every ``interval`` seconds, phase-shifted by ``offset``.

    ``offset`` staggers jobs that share an interval into waves (a
    fleet's clients are offset by ``rank % waves``) and doubles as the
    first occurrence time.
    """

    interval: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not (self.interval > 0):
            raise ConfigError(
                f"schedule interval must be > 0 seconds, "
                f"got {self.interval}")
        if self.offset < 0:
            raise ConfigError(
                f"schedule offset must be >= 0 seconds, "
                f"got {self.offset}")

    def first(self) -> float:
        """Time of the first occurrence."""
        return self.offset

    def next_after(self, t: float) -> float:
        """The earliest occurrence strictly after ``t``."""
        if t < self.offset:
            return self.offset
        k = math.floor((t - self.offset) / self.interval) + 1
        return self.offset + k * self.interval


class JobClock:
    """Per-job scheduling state: when it is next due and how it has
    been faring.

    ``next_due`` is ``None`` for unscheduled (manually triggered) jobs.
    """

    def __init__(self, schedule: Optional[IntervalSchedule]) -> None:
        self.schedule = schedule
        self.next_due: Optional[float] = (
            schedule.first() if schedule is not None else None)
        self.runs = 0
        self.failures = 0
        self.consecutive_failures = 0

    def due(self, now: float) -> bool:
        """Whether a scheduled occurrence is pending at ``now``."""
        return self.next_due is not None and self.next_due <= now

    def note_run(self, scheduled_for: float, ok: bool) -> None:
        """Record one executed occurrence and roll the schedule forward."""
        self.runs += 1
        if ok:
            self.consecutive_failures = 0
        else:
            self.failures += 1
            self.consecutive_failures += 1
        if self.schedule is not None:
            self.next_due = self.schedule.next_after(scheduled_for)
