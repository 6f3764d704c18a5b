"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Budgets of the store state machine (tests/test_state_machine.py),
# which selects one by the STATE_MACHINE_PROFILE environment variable:
# the small, derandomised tier-1 run by default, the large
# ``state-machine`` one in its own CI job.
_MACHINE = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])
settings.register_profile("state-machine-tier1", max_examples=40,
                          stateful_step_count=10, derandomize=True,
                          **_MACHINE)
settings.register_profile("state-machine", max_examples=400,
                          stateful_step_count=25, **_MACHINE)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-wide deterministic RNG."""
    return np.random.default_rng(0xAADE)


@pytest.fixture(scope="session")
def random_bytes(rng) -> bytes:
    """256 KiB of deterministic pseudo-random bytes."""
    return rng.integers(0, 256, size=256 * 1024, dtype=np.uint8).tobytes()
