"""Retry with exponential backoff and decorrelated jitter.

A consumer-WAN backup client must survive transient cloud failures
without hammering a struggling service.  :class:`RetryPolicy` implements
the standard remedy (AWS architecture-blog "decorrelated jitter"):

* each retry sleeps ``min(max_delay, uniform(base_delay, 3 * previous))``
  — exponential growth on average, desynchronised across clients;
* only *retryable* failures are retried: any
  :class:`~repro.errors.CloudError` except the permanent ones
  (:class:`~repro.errors.ObjectNotFound`,
  :class:`~repro.errors.PermanentCloudError`);
* a **retry budget** caps total sleep per call, so a dying link fails in
  bounded time instead of backing off forever;
* on exhaustion the *original* exception is re-raised, annotated with
  ``retry_attempts`` (how many attempts were made) — callers see the
  real failure, not a wrapper;
* sleeping goes through an injected clock when one is provided
  (:class:`~repro.simulate.clock.VirtualClock` in every test and
  benchmark), so retry-heavy scenarios run instantly and
  deterministically; without a clock it falls back to ``time.sleep``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import CloudError, ObjectNotFound, PermanentCloudError
from repro.obs.tracer import NOOP_TRACER

__all__ = ["RetryStats", "RetryPolicy"]

T = TypeVar("T")


@dataclass
class RetryStats:
    """Aggregate retry accounting across all calls of one policy."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    sleep_seconds: float = 0.0
    exhausted: int = 0


class RetryPolicy:
    """Callable-wrapping retry engine (seeded, clock-injected).

    ``clock`` may be anything with an ``advance(seconds)`` method; when
    ``None``, real ``time.sleep`` is used.  One policy instance may be
    shared by a whole client stack — its stats then describe the
    session's total retry traffic.
    """

    def __init__(self,
                 max_attempts: int = 6,
                 base_delay: float = 0.2,
                 max_delay: float = 10.0,
                 retry_budget: float = 60.0,
                 seed: int = 0,
                 clock=None) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.retry_budget = retry_budget
        self.clock = clock
        self.stats = RetryStats()
        self._rng = random.Random(seed)
        #: Profiling tracer (``SimulatedCloud`` propagates its own, the
        #: same way it propagates its clock).
        self.tracer = NOOP_TRACER

    # ------------------------------------------------------------------
    @staticmethod
    def is_retryable(exc: BaseException) -> bool:
        """Cloud errors are retryable unless provably permanent."""
        return (isinstance(exc, CloudError)
                and not isinstance(exc, (ObjectNotFound,
                                         PermanentCloudError)))

    def _sleep(self, seconds: float) -> None:
        with self.tracer.span("retry.sleep", seconds=seconds):
            self.stats.sleep_seconds += seconds
            if self.clock is not None and hasattr(self.clock, "advance"):
                self.clock.advance(seconds)
            else:  # pragma: no cover - real sleeps are avoided in tests
                time.sleep(seconds)
        if self.tracer.enabled:
            self.tracer.metrics.counter("retry_sleeps_total").inc()
            self.tracer.metrics.counter(
                "retry_sleep_seconds").inc(seconds)

    # ------------------------------------------------------------------
    def call(self, fn: Callable[..., T], *args, **kwargs) -> T:
        """Invoke ``fn`` under this policy; returns its result.

        Raises the last exception unchanged (annotated with
        ``retry_attempts``) once attempts, budget, or retryability run
        out.
        """
        self.stats.calls += 1
        slept = 0.0
        delay = self.base_delay
        for attempt in range(1, self.max_attempts + 1):
            self.stats.attempts += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                delay = min(self.max_delay,
                            self._rng.uniform(self.base_delay, delay * 3))
                give_up = (not self.is_retryable(exc)
                           or attempt >= self.max_attempts
                           or slept + delay > self.retry_budget)
                if give_up:
                    if self.is_retryable(exc):
                        self.stats.exhausted += 1
                    exc.retry_attempts = attempt
                    raise
                self.stats.retries += 1
                self._sleep(delay)
                slept += delay
        raise AssertionError("unreachable")  # pragma: no cover

    def wrap(self, fn: Callable[..., T]) -> Callable[..., T]:
        """Return ``fn`` bound to this policy (for upload callbacks)."""
        def wrapped(*args, **kwargs):
            return self.call(fn, *args, **kwargs)
        return wrapped
