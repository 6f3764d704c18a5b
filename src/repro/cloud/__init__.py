"""Cloud storage substrate: backends, WAN link model, S3 pricing.

The paper backs up to Amazon S3 over 802.11g (≈0.5 MB/s up, 1 MB/s down).
We provide:

* :class:`~repro.cloud.base.CloudBackend` — the put/get/delete/list API
  with request/byte accounting;
* :class:`~repro.cloud.local.LocalDirectoryBackend` — a real backend over
  a directory (what the examples and integration tests use);
* :class:`~repro.cloud.memory.InMemoryBackend` — dict-backed, for unit
  tests;
* :class:`~repro.cloud.wan.WANLink` — transfer-time model with per-request
  protocol overhead (why tiny uploads are slow — Sec. II-B);
* :class:`~repro.cloud.simulated.SimulatedCloud` — wraps any backend,
  advancing a virtual clock per the WAN model and computing S3 bills via
  :class:`~repro.cloud.pricing.PriceBook`;
* :class:`~repro.cloud.faults.ChaosBackend` — deterministic fault
  injection (transient/permanent errors, lost acks, bit flips, latency
  spikes) for any backend;
* :class:`~repro.cloud.retry.RetryPolicy` — exponential backoff with
  decorrelated jitter and a retry budget, sleeping on the injected
  clock (see docs/RESILIENCE.md).
"""

from repro.cloud.base import CloudBackend, CloudStats
from repro.cloud.memory import InMemoryBackend
from repro.cloud.local import LocalDirectoryBackend
from repro.cloud.faults import ChaosBackend, ChaosStats
from repro.cloud.namespace import NamespacedBackend
from repro.cloud.retry import RetryPolicy, RetryStats
from repro.cloud.wan import WANLink
from repro.cloud.pricing import CostBreakdown, PriceBook, S3_APRIL_2011
from repro.cloud.simulated import SimulatedCloud

__all__ = [
    "CloudBackend",
    "CloudStats",
    "InMemoryBackend",
    "LocalDirectoryBackend",
    "ChaosBackend",
    "ChaosStats",
    "NamespacedBackend",
    "RetryPolicy",
    "RetryStats",
    "WANLink",
    "CostBreakdown",
    "PriceBook",
    "S3_APRIL_2011",
    "SimulatedCloud",
]
