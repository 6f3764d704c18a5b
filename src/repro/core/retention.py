"""Retention policies: which backup sessions to keep.

The garbage collector (:mod:`repro.core.gc`) takes an explicit retain
set; these helpers compute that set from operator-friendly policies —
the glue a deployable backup tool needs around "supporting deletion of
files" (paper Sec. III-F).

Two policies are provided:

* :class:`RetainLastN` — rolling window over manifest *timestamps*
  (``repro gc --keep-last`` and the service layer's ``retain-last``);
* :class:`RetainMaxAge` — drop sessions older than a cutoff.

Both share one interface — ``select(sessions, now)`` over a
``{session_id: created_ts}`` catalog (see
:func:`repro.core.gc.session_catalog`) — so the service runner applies
either interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Set

from repro.errors import ConfigError

__all__ = ["RetainLastN", "RetainMaxAge"]


@dataclass(frozen=True)
class RetainLastN:
    """Retain the ``count`` newest sessions by creation time.

    Recency is decided by the manifest's ``created`` stamp (session ids
    break ties), so explicit re-runs of an old session id never shadow
    genuinely newer sessions.  ``count <= 0`` is a configuration error —
    a drop-everything retain set must be explicit (``repro gc
    --retain ""``), never a config typo.
    """

    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError(
                f"retain-last count must be >= 1, got {self.count}")

    def select(self, sessions: Mapping[int, float],
               now: float = 0.0) -> Set[int]:
        """Return the retained ids from ``{session_id: created_ts}``."""
        ordered = sorted(sessions, key=lambda sid: (sessions[sid], sid))
        return set(ordered[-self.count:])


@dataclass(frozen=True)
class RetainMaxAge:
    """Retain sessions no older than ``max_age_seconds`` at ``now``.

    The newest session is always retained, whatever its age: a backup
    service must never transition from "old backups" to "no backups"
    purely by the passage of time.
    """

    max_age_seconds: float

    def __post_init__(self) -> None:
        if self.max_age_seconds <= 0:
            raise ConfigError(
                f"max-age must be > 0 seconds, got {self.max_age_seconds}")

    def select(self, sessions: Mapping[int, float],
               now: float) -> Set[int]:
        """Return the retained ids from ``{session_id: created_ts}``."""
        if not sessions:
            return set()
        retain = {sid for sid, ts in sessions.items()
                  if now - ts <= self.max_age_seconds}
        retain.add(max(sessions, key=lambda sid: (sessions[sid], sid)))
        return retain
