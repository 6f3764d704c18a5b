"""Open-container management (paper Sec. III-F).

The manager keeps one *open* container per backup stream, appends each
new unique chunk (or tiny file) to its stream's container in arrival
order — preserving *chunk locality* so data likely to be restored
together is stored together — and seals/uploads a container when it
fills.  Sealed containers are padded to the fixed container size.
Chunks larger than the container payload (e.g. WFC fingerprints of big
compressed files) are shipped as dedicated *oversized* containers, kept
self-describing but not padded.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict

from repro.container.format import ContainerWriter, FLAG_TINY_FILE
from repro.errors import ContainerError
from repro.obs.metrics import CHUNK_SIZE_BUCKETS
from repro.obs.tracer import NOOP_TRACER
from repro.util.units import MIB

__all__ = ["ChunkLocation", "ContainerManager"]


@dataclass(frozen=True)
class ChunkLocation:
    """Where a chunk lives: container id + (offset, length) in its data
    section.  This is the payload of an index entry."""

    container_id: int
    offset: int
    length: int


@dataclass
class ContainerManagerStats:
    """Aggregate accounting for cost/window models."""

    sealed: int = 0
    oversized: int = 0
    bytes_payload: int = 0
    bytes_uploaded: int = 0
    bytes_padding: int = 0
    tiny_files_packed: int = 0


class ContainerManager:
    """Packs unique chunks into fixed-size containers and uploads them.

    A container seals (serialise, pad, CRC) inline, in the :meth:`add`
    that fills it, and ``upload(container_id, blob)`` is invoked
    synchronously with the sealed blob — the core engine passes a
    callback that PUTs it, or hands it to the pipelined uploader.
    ``container_size`` defaults to the paper's 1 MB.
    """

    def __init__(self,
                 upload: Callable[[int, bytes], None],
                 container_size: int = 1 * MIB,
                 pad_containers: bool = True,
                 first_container_id: int = 0,
                 tracer=None) -> None:
        if container_size < 4096:
            raise ContainerError("container_size must be >= 4096")
        self._upload = upload
        self.container_size = container_size
        self.pad_containers = pad_containers
        self._next_id = first_container_id
        self._open: Dict[str, ContainerWriter] = {}
        self.stats = ContainerManagerStats()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # Callers on several threads append to different streams but
        # share id allocation, stats and the upload path.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _new_writer(self, capacity: int | None = None) -> ContainerWriter:
        writer = ContainerWriter(self._next_id,
                                 capacity or self.container_size)
        self._next_id += 1
        return writer

    def _seal(self, writer: ContainerWriter, *, pad: bool,
              stream: str = "default") -> None:
        tracer = self.tracer
        with tracer.span("container.seal", app=stream,
                         container=writer.container_id,
                         bytes=writer.occupancy(), padded=pad):
            blob = writer.seal(pad_to_capacity=pad)
            self.stats.sealed += 1
            self.stats.bytes_payload += writer.data_size
            self.stats.bytes_uploaded += len(blob)
            if pad:
                self.stats.bytes_padding += len(blob) - writer.occupancy()
            self._upload(writer.container_id, blob)
        if tracer.enabled:
            tracer.metrics.histogram(
                "container_payload_bytes",
                CHUNK_SIZE_BUCKETS).observe(writer.data_size)

    # ------------------------------------------------------------------
    def add(self, fingerprint: bytes, data: bytes,
            stream: str = "default", *,
            tiny_file: bool = False) -> ChunkLocation:
        """Append a unique chunk or tiny file; returns its final
        location.

        The location is known immediately (offsets are fixed at append
        time) even though the container uploads later — this is what lets
        the deduplicator insert the index entry before the seal.  An add
        that fills a container seals it and raises whatever the upload
        callback raises.  Thread-safe.
        """
        with self._lock:
            return self._add_locked(fingerprint, data, stream,
                                    tiny_file=tiny_file)

    def _add_locked(self, fingerprint: bytes, data: bytes,
                    stream: str, *, tiny_file: bool) -> ChunkLocation:
        flags = FLAG_TINY_FILE if tiny_file else 0
        probe = ContainerWriter(0, self.container_size)
        if not probe.fits(len(data)):
            # Oversized: dedicated self-describing container, unpadded.
            writer = self._new_writer(capacity=len(data) + 64 * 1024)
            offset = writer.append(fingerprint, data, flags)
            location = ChunkLocation(writer.container_id, offset, len(data))
            self.stats.oversized += 1
            self._seal(writer, pad=False, stream=stream)
            return location

        writer = self._open.get(stream)
        if writer is not None and not writer.fits(len(data)):
            self._seal(writer, pad=self.pad_containers, stream=stream)
            writer = None
        if writer is None:
            writer = self._open[stream] = self._new_writer()
        offset = writer.append(fingerprint, data, flags)
        if tiny_file:
            self.stats.tiny_files_packed += 1
        return ChunkLocation(writer.container_id, offset, len(data))

    def flush(self, stream: str | None = None) -> None:
        """Seal and upload any open container(s).

        End-of-session flush pads the final container to full size, per
        the paper ("if a container is not full but needs to be written to
        disk, it is padded out to its full size").  On return every
        container has been handed to the upload callback.
        """
        with self._lock:
            streams = ([stream] if stream is not None
                       else list(self._open))
            for name in streams:
                writer = self._open.pop(name, None)
                if writer is not None and writer.chunk_count:
                    self._seal(writer, pad=self.pad_containers,
                               stream=name)

    @property
    def next_container_id(self) -> int:
        """Id that the next opened container will receive."""
        return self._next_id

    def set_next_id(self, container_id: int) -> None:
        """Restart id allocation at ``container_id``.

        The backup engine calls it at every session open: a resumed
        session replays the interrupted run's numbering so re-generated
        containers land on their original keys.  Containers still open
        there were left by a failed session, so nothing references
        their extents: they are dropped unsealed.
        """
        with self._lock:
            self._open.clear()
            self._next_id = container_id
