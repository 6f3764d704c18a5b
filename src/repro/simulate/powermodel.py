"""Power/energy model for the Fig. 11 reproduction.

The paper measures whole-PC wall power with an electricity usage monitor
while each scheme deduplicates.  We model the 2009 MacBook Pro as an
idle floor plus a CPU-activity premium; the energy of a session's
dedup phase — what Fig. 11 meters — is that power × the modelled dedup
time.  The scheme ranking in Fig. 11 follows directly from dedup CPU
time, which is what the model preserves.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PowerModel", "PAPER_POWER"]


@dataclass(frozen=True)
class PowerModel:
    """Wall-power states of the client machine (watts)."""

    #: Idle system draw (screen on, CPU idle).
    idle_watts: float = 16.0
    #: Additional draw while the CPU crunches (hashing/chunking).
    cpu_active_watts: float = 26.0

    def dedup_energy_joules(self, dedup_seconds: float) -> float:
        """Energy consumed by the deduplication phase (what Fig. 11
        compares): busy CPU + baseline for its duration."""
        return dedup_seconds * (self.idle_watts + self.cpu_active_watts)


#: The paper's client machine.
PAPER_POWER = PowerModel()
