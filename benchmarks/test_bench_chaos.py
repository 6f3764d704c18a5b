"""Chaos bench — goodput and re-upload overhead versus injected faults.

Runs the real backup engine (AA-Dedupe plus two baseline extremes:
Jungle Disk's whole-file uploads and Avamar's per-chunk puts) against a
:class:`ChaosBackend` over the paper WAN at increasing transient-error
rates, with retries on a virtual clock.  Reported per scheme and rate:

* **goodput** — logical bytes protected per modelled WAN second (falls
  as fault rate rises, because failed attempts and backoff burn time);
* **waste** — bytes burned on failed attempts as a fraction of all
  bytes offered to the wire (the session journal's segments, which
  commit deletes, are transfer but not waste);
* **journal** — PUTs and bytes of those segments, the always-on
  journal's share of the transfer, stored and deleted;
* **retries** — how many retry sleeps the policy issued.

A second table measures *resume efficiency*: a mid-session crash at
~85 % of containers, then a journal-driven re-run — re-uploaded
container bytes must stay under 20 % of the session's container total.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.baselines.schemes import avamar_config, jungle_disk_config
from repro.cloud import ChaosBackend, InMemoryBackend, RetryPolicy, \
    SimulatedCloud
from repro.core import BackupClient, MemorySource, RestoreClient, \
    aa_dedupe_config, naming
from repro.core.scrub import scrub_cloud
from repro.metrics import Table
from repro.simulate.clock import VirtualClock
from repro.util.units import KIB, format_bytes

FAULT_RATES = [0.0, 0.02, 0.05, 0.10]
CONTAINER = 64 * KIB


def _workload(seed=2011, n_files=30, file_size=40_000):
    rng = np.random.default_rng(seed)
    return {f"docs/f{i:03d}.doc": rng.integers(
        0, 256, file_size, dtype=np.uint8).tobytes()
        for i in range(n_files)}


def _configs():
    return [
        aa_dedupe_config(container_size=CONTAINER),
        jungle_disk_config(),
        avamar_config(),
    ]


class _JournalLog(InMemoryBackend):
    """Counts the journal segments it stores, and their bytes."""

    journal_puts = journal_bytes = 0

    def _put(self, key, data):
        if key.startswith(naming.JOURNAL_PREFIX):
            self.journal_puts += 1
            self.journal_bytes += len(data)
        super()._put(key, data)


def _run_one(config, files, rate, seed=7):
    clock = VirtualClock()
    store = _JournalLog()
    chaos = ChaosBackend(store, seed=seed,
                         transient_error_rate=rate,
                         latency_spike_rate=rate / 2,
                         latency_spike_seconds=2.0)
    retry = RetryPolicy(max_attempts=10, seed=seed, clock=clock)
    cloud = SimulatedCloud(chaos, clock=clock, retry=retry)
    client = BackupClient(cloud, config)
    stats = client.backup(MemorySource(files))
    goodput = stats.bytes_scanned / max(cloud.transfer_seconds(), 1e-9)
    stored = chaos.stored_bytes()
    offered = cloud.stats.bytes_uploaded
    waste = (offered - stored - store.journal_bytes) / max(offered, 1)
    return dict(goodput=goodput, waste=waste,
                retries=retry.stats.retries,
                journal_puts=store.journal_puts,
                journal_bytes=store.journal_bytes,
                faults=chaos.chaos.total_faults,
                transfer=cloud.transfer_seconds(), stats=stats,
                cloud=cloud)


def test_goodput_vs_fault_rate(benchmark):
    files = _workload()

    def run():
        results = {}
        for config in _configs():
            for rate in FAULT_RATES:
                results[(config.name, rate)] = _run_one(
                    config, files, rate)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(["scheme", "fault rate", "goodput", "waste %",
                   "journal PUTs", "journal", "retries", "WAN s"],
                  title="Chaos bench: goodput vs injected fault rate "
                        "(paper WAN, virtual clock)")
    for (name, rate), r in results.items():
        table.add_row([name, f"{rate:.2f}",
                       format_bytes(r["goodput"], decimal=True) + "/s",
                       f"{100 * r['waste']:.1f}",
                       r["journal_puts"], format_bytes(r["journal_bytes"]),
                       r["retries"], f"{r['transfer']:.1f}"])
    emit(table.render())

    for config in _configs():
        clean = results[(config.name, 0.0)]
        worst = results[(config.name, FAULT_RATES[-1])]
        # Fault-free runs neither retry nor waste bytes.
        assert clean["retries"] == 0 and clean["waste"] == 0.0
        # Every chaotic run still completed all files via retries...
        assert worst["stats"].files_total == len(files)
        # ...at a goodput cost that the model actually registers.
        assert worst["goodput"] < clean["goodput"]
        assert worst["waste"] > 0.0
        # The store survived the chaos bit-exact.
        restored, _ = RestoreClient(worst["cloud"]).restore_to_memory(0)
        assert restored == files


def test_resume_overhead_after_crash(benchmark):
    files = _workload(seed=4)

    class CrashBackend(InMemoryBackend):
        def __init__(self, crash_after):
            super().__init__()
            self.crash_after = crash_after
            self.armed = True
            self.container_puts = 0
            self.container_bytes = 0

        def _put(self, key, data):
            if key.startswith(naming.CONTAINER_PREFIX):
                if self.armed and self.container_puts >= self.crash_after:
                    raise RuntimeError("simulated crash")
                self.container_puts += 1
                self.container_bytes += len(data)
            super()._put(key, data)

    def run():
        cfg = aa_dedupe_config(container_size=CONTAINER)
        dry = InMemoryBackend()
        BackupClient(dry, cfg).backup(MemorySource(files))
        container_keys = dry.list(naming.CONTAINER_PREFIX)
        session_total = sum(len(dry._objects[k]) for k in container_keys)

        cloud = CrashBackend(crash_after=int(len(container_keys) * 0.85))
        try:
            BackupClient(cloud, cfg).backup(MemorySource(files),
                                            session_id=0)
        except RuntimeError:
            pass
        cloud.armed = False
        cloud.container_bytes = 0
        stats = BackupClient(cloud, cfg).backup(MemorySource(files),
                                                session_id=0)
        # fraction of one session's container bytes re-uploaded
        return dict(reupload=cloud.container_bytes / session_total,
                    stats=stats, cloud=cloud)

    r = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(["re-uploaded", "skipped objects"],
                  title="Crash at 85% of containers, then re-run")
    table.add_row([f"{100 * r['reupload']:.1f}%",
                   r["stats"].resume_skipped_objects])
    emit(table.render())

    # The journal's re-run re-uploads < 20% of container bytes, and
    # converges to a byte-identical, scrub-clean store.
    assert r["reupload"] < 0.20
    restored, _ = RestoreClient(r["cloud"]).restore_to_memory(0)
    assert restored == files
    assert scrub_cloud(r["cloud"]).clean
