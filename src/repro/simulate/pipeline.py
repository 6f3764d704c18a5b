"""The paper's pipelined backup-window model (Sec. IV-D).

"Because of our pipelined design for the deduplication processes and the
data transfer operations, the backup window size of each backup session
can be calculated based on::

    BWS = DS · max(1/DT, 1/(DR·NT))

i.e. the slower of the dedup stage and the WAN transfer stage governs.
:func:`backup_window` evaluates the same expression from first-class
quantities (seconds, bytes) rather than rates, avoiding division-order
pitfalls; :func:`dedup_throughput` recovers DT for reporting.
"""

from __future__ import annotations

__all__ = ["backup_window", "dedup_throughput"]


def dedup_throughput(dataset_bytes: float, dedup_seconds: float) -> float:
    """DT: logical bytes deduplicated per second of dedup-stage time."""
    if dedup_seconds <= 0:
        return float("inf")
    return dataset_bytes / dedup_seconds


def backup_window(dedup_seconds: float, transfer_seconds: float,
                  pipelined: bool = True) -> float:
    """Session backup window.

    ``pipelined=True`` is the paper's model: the stages overlap, so the
    window is their maximum.  ``pipelined=False`` gives the serial
    (sum) window for schemes without overlap — used in ablations.
    """
    if pipelined:
        return max(dedup_seconds, transfer_seconds)
    return dedup_seconds + transfer_seconds
