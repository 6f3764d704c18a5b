"""Policy-driven trace backup client.

Executes one :class:`~repro.core.options.SchemeConfig` over composition
snapshots.  The per-file decisions — tiny-file filter, per-category
chunk/hash policy, optional file-level tier, index namespace — come
from the same :meth:`SchemeConfig.plan_file` the real
:class:`~repro.core.backup.BackupClient` asks; this engine only
*accounts* for the bytes instead of moving them.  Additionally it
models index RAM residency: each lookup/insert against a namespace whose
entry population exceeds the residency budget accrues expected random
disk IOs — the on-disk index bottleneck of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Set

from repro.chunking import CDC_FAMILY
from repro.classify.filetype import classify_name
from repro.core.options import SchemeConfig
from repro.core.stats import SessionStats
from repro.simulate.cpumodel import CPUModel, PAPER_CPU
from repro.simulate.diskmodel import (DiskModel, IndexResidencyModel,
                                      PAPER_DISK, PAPER_RESIDENCY)
from repro.trace.simchunk import BoundaryModel, sim_chunks, wfc_id
from repro.workloads.compose import Snapshot

__all__ = ["TraceBackupClient", "modelled_stage_seconds"]

#: Serialized container framing overhead and per-chunk descriptor bytes.
_CONTAINER_OVERHEAD = 64
_DESCRIPTOR_BYTES = 34
#: Modelled manifest bytes per file entry / per chunk reference.
_MANIFEST_FILE_BYTES = 96
_MANIFEST_REF_BYTES = 56
#: Serialized index entry bytes (sync traffic).
_SYNC_ENTRY_BYTES = 48
#: Filesystem-pool index (BackupPC): metadata IOs per probe/insert.
_FS_IOS_PER_OP = 1.0


def modelled_stage_seconds(stats: SessionStats,
                           cpu: CPUModel = PAPER_CPU,
                           disk: DiskModel = PAPER_DISK,
                           disk_ios: float | None = None) -> Dict[str, float]:
    """Decompose a session's modelled dedup time into pipeline stages.

    Returns ``{"read", "chunk", "hash", "index", "commit"}`` seconds whose
    sum equals the trace driver's ``dedup_seconds`` exactly::

        dedup_cpu_seconds(stats.ops, cpu, files=stats.files_total)
        + disk.read_seconds(stats.ops.read_bytes)
        + disk.random_io_seconds(disk_ios)

    ``disk_ios`` is the expected random index IO count for the session
    (``TraceBackupClient.disk_ios_last_session``); it defaults to the
    integer probe count recorded in the op ledger.  The decomposition
    mirrors the real engine's stage graph: file read (sequential disk),
    CDC boundary scan + per-chunk bookkeeping (chunk stage),
    fingerprinting (hash stage), index probes RAM + disk (probe stage),
    and per-file overhead (serial commit stage).
    """
    ops = stats.ops
    if disk_ios is None:
        disk_ios = float(ops.index_disk_probes)
    f = cpu.frequency_hz
    hash_s = sum(cpu.hash_seconds(name, nbytes)
                 for name, nbytes in ops.hashed_bytes.items())
    chunk_s = (cpu.cdc_scan_seconds(ops.cdc_scanned_bytes)
               + ops.chunks_produced * cpu.cycles_per_chunk / f)
    memory_lookups = max(0, ops.index_lookups - ops.index_disk_probes)
    index_s = (memory_lookups * cpu.cycles_per_memory_lookup / f
               + disk.random_io_seconds(disk_ios))
    return {
        "read": disk.read_seconds(ops.read_bytes),
        "chunk": chunk_s,
        "hash": hash_s,
        "index": index_s,
        "commit": stats.files_total * cpu.cycles_per_file / f,
    }


@dataclass
class _StreamState:
    """Open-container fill level for one backup stream."""

    fill: int = 0
    chunks: int = 0


class TraceBackupClient:
    """Stateful trace client for one scheme (10-session capable)."""

    def __init__(self, config: SchemeConfig,
                 residency: IndexResidencyModel = PAPER_RESIDENCY) -> None:
        self.config = config
        self.residency = residency
        #: namespace -> set of chunk ids (the index population).
        self.indices: Dict[str, Set[int]] = {}
        self._file_tier: Dict[int, int] = {}
        self._boundaries = BoundaryModel()
        self._prev_meta: Dict[str, tuple] = {}
        self._streams: Dict[str, _StreamState] = {}
        self._synced_entries = 0
        self._session = 0
        #: Cumulative cloud bytes / puts across all sessions (Fig. 7/10).
        self.cumulative_uploaded = 0
        self.cumulative_puts = 0
        #: Expected random disk IOs accrued in the current session.
        self._disk_ios = 0.0

    # ------------------------------------------------------------------
    def _index(self, namespace: str) -> Set[int]:
        idx = self.indices.get(namespace)
        if idx is None:
            idx = self.indices[namespace] = set()
        return idx

    def _lookup(self, namespace: str, chunk_id: int,
                stats: SessionStats) -> bool:
        idx = self._index(namespace)
        stats.ops.index_lookups += 1
        if self.config.index_media == "fs":
            self._disk_ios += _FS_IOS_PER_OP
        else:
            self._disk_ios += self.residency.lookup_io_count(1, len(idx))
        hit = chunk_id in idx
        if hit:
            stats.ops.index_hits += 1
        return hit

    def _insert(self, namespace: str, chunk_id: int) -> None:
        idx = self._index(namespace)
        if self.config.index_media == "fs":
            self._disk_ios += _FS_IOS_PER_OP
        else:
            self._disk_ios += self.residency.insert_io_count(1, len(idx))
        idx.add(chunk_id)

    # ------------------------------------------------------------------
    def _container_payload_capacity(self) -> int:
        return (self.config.container_size - _CONTAINER_OVERHEAD
                - _DESCRIPTOR_BYTES)

    def _store_unique(self, length: int, stream: str,
                      stats: SessionStats) -> None:
        """Model placing a unique extent (container fill or direct PUT)."""
        stats.bytes_unique += length
        if not self.config.use_containers:
            stats.put_requests += 1
            stats.bytes_uploaded += length
            return
        capacity = self._container_payload_capacity()
        if length > capacity:
            # Oversized chunk: dedicated, unpadded container.
            stats.put_requests += 1
            stats.bytes_uploaded += (length + _CONTAINER_OVERHEAD
                                     + _DESCRIPTOR_BYTES)
            return
        state = self._streams.setdefault(stream, _StreamState())
        needed = length + _DESCRIPTOR_BYTES
        if state.fill + needed > capacity:
            self._seal(state, stats)
        state.fill += needed
        state.chunks += 1

    def _seal(self, state: _StreamState, stats: SessionStats,
              final: bool = False) -> None:
        if state.chunks == 0:
            return
        stats.put_requests += 1
        if self.config.pad_containers and not final:
            stats.bytes_uploaded += self.config.container_size
        else:
            # Final per-stream containers are charged at their fill: the
            # real engine pads them, but that padding is a fixed ~half
            # container per stream per session — negligible at paper
            # scale and grossly over-weighted in scaled-down runs, so
            # the scale-invariant model omits it.
            stats.bytes_uploaded += state.fill + _CONTAINER_OVERHEAD
        state.fill = 0
        state.chunks = 0

    def _flush_streams(self, stats: SessionStats) -> None:
        for state in self._streams.values():
            self._seal(state, stats, final=True)

    # ------------------------------------------------------------------
    def _process(self, path: str, comp, app, snapshot: Snapshot,
                 stats: SessionStats) -> int:
        """Handle one file; returns the number of recipe references."""
        cfg = self.config
        plan = cfg.plan_file(app, comp.size)

        if cfg.incremental_only:
            meta = (comp.size, snapshot.mtimes.get(path, 0))
            if self._prev_meta.get(path) == meta:
                stats.files_unchanged += 1
                return 1
            stats.ops.read_bytes += comp.size
            stats.ops.add_hashed("sha1", comp.size)
            stats.bytes_unique += comp.size
            stats.bytes_uploaded += comp.size
            stats.put_requests += 1
            return 1

        stats.ops.read_bytes += comp.size
        if plan.tiny:
            stats.files_tiny += 1
            if comp.size:
                stats.ops.add_hashed("sha1", comp.size)
                self._store_unique(comp.size, plan.namespace, stats)
            return 1

        policy = plan.policy
        if plan.file_tier:
            fid = wfc_id(comp)
            stats.ops.add_hashed("sha1", comp.size)
            stats.ops.index_lookups += 1
            if fid in self._file_tier:
                stats.ops.index_hits += 1
                return self._file_tier[fid]
        else:
            fid = None

        namespace = plan.namespace
        params = dict(policy.chunker_params)
        if policy.chunker in CDC_FAMILY:
            # The trace layer models cut *placement* abstractly (block-
            # keyed pseudo-random candidates), so every CDC-family
            # engine shares the one content-defined boundary model; the
            # engines differ in scan cost, not in the statistics the
            # trace evaluation measures.
            stats.ops.cdc_scanned_bytes += comp.size
            chunks = sim_chunks(comp, "cdc", self._boundaries,
                                min_size=params.get("min_size", 2048),
                                max_size=params.get("max_size", 16384))
        elif policy.chunker == "sc":
            chunks = sim_chunks(comp, "sc",
                                chunk_size=params.get("chunk_size", 8192))
        else:
            chunks = sim_chunks(comp, "wfc")
        for chunk_id, length in chunks:
            stats.ops.chunks_produced += 1
            stats.ops.add_hashed(policy.hash_name, length)
            if not self._lookup(namespace, chunk_id, stats):
                self._insert(namespace, chunk_id)
                stats.chunks_unique += 1
                self._store_unique(length, namespace, stats)
        if fid is not None:
            self._file_tier[fid] = len(chunks)
        return len(chunks)

    def backup(self, snapshot: Snapshot) -> SessionStats:
        """Run one trace backup session; returns the paper-ready stats."""
        cfg = self.config
        stats = SessionStats(session_id=self._session, scheme=cfg.name)
        self._disk_ios = 0.0
        refs = 0

        for path in sorted(snapshot.files):
            comp = snapshot.files[path]
            app = classify_name(path)
            stats.files_total += 1
            stats.bytes_scanned += comp.size
            unique_before = stats.bytes_unique
            refs += self._process(path, comp, app, snapshot, stats)
            stats.note_app(app.label, comp.size,
                           stats.bytes_unique - unique_before)

        self._flush_streams(stats)

        # Manifest upload.
        manifest_bytes = (stats.files_total * _MANIFEST_FILE_BYTES
                          + refs * _MANIFEST_REF_BYTES)
        stats.bytes_uploaded += manifest_bytes
        stats.put_requests += 1

        # Incremental index sync (new entries since last sync).
        if cfg.index_sync_interval and (
                (self._session + 1) % cfg.index_sync_interval == 0):
            total_entries = sum(len(s) for s in self.indices.values())
            delta = total_entries - self._synced_entries
            if delta > 0:
                stats.bytes_uploaded += delta * _SYNC_ENTRY_BYTES
                stats.put_requests += max(1, len(self.indices))
                self._synced_entries = total_entries

        stats.ops.index_disk_probes = int(math.ceil(self._disk_ios))
        self._prev_meta = {path: (c.size, snapshot.mtimes.get(path, 0))
                           for path, c in snapshot.files.items()}
        self.cumulative_uploaded += stats.bytes_uploaded
        self.cumulative_puts += stats.put_requests
        self._session += 1
        return stats

    # ------------------------------------------------------------------
    def namespace_sizes(self) -> Dict[str, int]:
        """Current index population per namespace (residency evidence)."""
        return {ns: len(ids) for ns, ids in self.indices.items()}

    @property
    def disk_ios_last_session(self) -> float:
        """Expected random index IOs accrued by the latest session."""
        return self._disk_ios
