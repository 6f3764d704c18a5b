"""Simulated cloud: any backend + WAN timing + S3 billing + retries.

Wraps a :class:`~repro.cloud.base.CloudBackend`, charging every request
to a :class:`~repro.cloud.wan.WANLink` model on a clock.  With a
:class:`~repro.simulate.clock.VirtualClock` this yields deterministic
transfer times at paper scale; with no clock it is a pure accounting
wrapper around a real backend.

Fault tolerance: pass a :class:`~repro.cloud.retry.RetryPolicy` and
every operation is retried per the policy (transient failures from e.g.
a :class:`~repro.cloud.faults.ChaosBackend` are absorbed; permanent ones
surface).  Each *attempt* — failed or not — pays full WAN transfer time,
modelling a transfer that completed but whose acknowledgement failed;
latency spikes injected by a chaos backend are drained into the WAN
timing after every call, so "goodput under faults" is directly readable
from :meth:`transfer_seconds`.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.base import CloudBackend
from repro.cloud.pricing import PriceBook, S3_APRIL_2011
from repro.cloud.retry import RetryPolicy
from repro.cloud.wan import WANLink, PAPER_WAN
from repro.obs.tracer import NOOP_TRACER

__all__ = ["SimulatedCloud"]


class SimulatedCloud:
    """Facade combining storage, WAN timing, billing and retries.

    All storage operations delegate to ``backend`` (so the data is really
    stored and restorable); ``transfer_seconds`` accumulates modelled WAN
    time, split into upload/download components; ``bill()`` prices the
    accumulated traffic.
    """

    def __init__(self,
                 backend: CloudBackend,
                 wan: WANLink = PAPER_WAN,
                 prices: PriceBook = S3_APRIL_2011,
                 clock=None,
                 retry: Optional[RetryPolicy] = None,
                 tracer=None) -> None:
        self.backend = backend
        self.wan = wan
        self.prices = prices
        self.clock = clock
        self.retry = retry
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        if retry is not None and retry.clock is None:
            retry.clock = clock  # backoff sleeps advance the same clock
        if retry is not None and retry.tracer is NOOP_TRACER:
            retry.tracer = self.tracer  # sleeps appear in the same trace
        self.upload_seconds = 0.0
        self.download_seconds = 0.0

    def _advance(self, seconds: float) -> None:
        if self.clock is not None and hasattr(self.clock, "advance"):
            self.clock.advance(seconds)

    def _charge_up(self, seconds: float) -> None:
        self.upload_seconds += seconds
        self._advance(seconds)

    def _charge_down(self, seconds: float) -> None:
        self.download_seconds += seconds
        self._advance(seconds)

    def _drain_chaos(self) -> None:
        """Charge latency spikes injected by a fault wrapper, if any."""
        consume = getattr(self.backend, "consume_spike_seconds", None)
        if consume is not None:
            self._charge_up(consume())

    def _call(self, attempt):
        if self.retry is not None:
            return self.retry.call(attempt)
        return attempt()

    def _traced_call(self, name: str, attempt, **attrs):
        """Run ``attempt`` under retry, spanning the call and each
        individual attempt (retries of one logical operation show up as
        sibling ``<name>.attempt`` spans under one ``<name>`` parent)."""
        tracer = self.tracer
        counter = {"n": 0}

        def traced_attempt():
            counter["n"] += 1
            with tracer.span(name + ".attempt",
                             attempt=counter["n"], **attrs):
                return attempt()

        with tracer.span(name, **attrs) as sp:
            try:
                return self._call(traced_attempt)
            finally:
                sp.set("attempts", counter["n"])
                if tracer.enabled:
                    tracer.metrics.counter(
                        "cloud_attempts_total").inc(counter["n"])

    # ------------------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        """Upload an object (charges WAN upload time, per attempt)."""
        def attempt():
            try:
                self.backend.put(key, data)
            finally:
                self._charge_up(self.wan.upload_time(len(data), 1))
                self._drain_chaos()
        self._traced_call("cloud.put", attempt, key=key,
                          bytes=len(data))

    def get(self, key: str) -> bytes:
        """Download an object (charges WAN download time, per attempt)."""
        def attempt():
            try:
                data = self.backend.get(key)
            except BaseException:
                self._charge_down(self.wan.download_time(0, 1))
                self._drain_chaos()
                raise
            self._charge_down(self.wan.download_time(len(data), 1))
            self._drain_chaos()
            return data
        return self._traced_call("cloud.get", attempt, key=key)

    def exists(self, key: str) -> bool:
        """HEAD-style existence probe.

        Charged exactly like a zero-byte ``get`` — per-request latency
        amortised over the link's concurrent request slots — so probe
        loops are not over- or under-billed relative to real transfers.
        """
        def attempt():
            try:
                return self.backend.exists(key)
            finally:
                self._charge_down(self.wan.download_time(0, 1))
                self._drain_chaos()
        return self._traced_call("cloud.exists", attempt, key=key)

    def delete(self, key: str) -> bool:
        """Delete an object (one request latency)."""
        def attempt():
            try:
                return self.backend.delete(key)
            finally:
                self._advance(self.wan.request_latency)
                self._drain_chaos()
        return self._traced_call("cloud.delete", attempt, key=key)

    def list(self, prefix: str = "") -> list[str]:
        """List keys (one request latency)."""
        def attempt():
            try:
                return self.backend.list(prefix)
            finally:
                self._advance(self.wan.request_latency)
                self._drain_chaos()
        return self._traced_call("cloud.list", attempt, prefix=prefix)

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The underlying backend's request/byte counters."""
        return self.backend.stats

    def transfer_seconds(self) -> float:
        """Total modelled WAN time so far."""
        return self.upload_seconds + self.download_seconds

    def bill(self, months: float = 1.0) -> float:
        """Monthly S3-style bill for current stored bytes + past traffic."""
        return self.prices.monthly_cost(
            stored_bytes=self.backend.stored_bytes(),
            uploaded_bytes=self.stats.bytes_uploaded,
            put_requests=self.stats.put_requests,
            months=months)
