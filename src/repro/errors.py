"""Exception hierarchy for the AA-Dedupe reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing subsystems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "ChunkingError",
    "HashError",
    "IndexError_",
    "ContainerError",
    "ContainerFormatError",
    "CloudError",
    "TransientCloudError",
    "PermanentCloudError",
    "ObjectNotFound",
    "BackupError",
    "RestoreError",
    "IntegrityError",
    "WorkloadError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """Raised when a configuration object contains invalid values."""


class ChunkingError(ReproError):
    """Raised when a chunker is misconfigured or fed invalid input."""


class HashError(ReproError):
    """Raised for unknown hash names or invalid hash parameters."""


class IndexError_(ReproError):
    """Raised by chunk-index implementations (name avoids the builtin)."""


class ContainerError(ReproError):
    """Raised by the container manager for invalid operations."""


class ContainerFormatError(ContainerError):
    """Raised when container bytes fail to parse or fail CRC validation."""


class CloudError(ReproError):
    """Raised by cloud storage backends."""


class TransientCloudError(CloudError):
    """A cloud failure expected to clear on retry (timeouts, 5xx, lost
    acks).  :class:`repro.cloud.retry.RetryPolicy` always retries these."""


class PermanentCloudError(CloudError):
    """A cloud failure that retrying cannot fix (auth, invalid request,
    a key the fault injector has condemned).  Never retried."""


class ObjectNotFound(PermanentCloudError, KeyError):
    """Raised when a requested cloud object key does not exist.

    The missing key is available as :attr:`key`; ``str()`` renders a
    readable message rather than ``KeyError``'s quoted-key form.
    """

    def __init__(self, key: str) -> None:
        super().__init__(f"cloud object not found: {key!r}")
        self.key = key

    def __str__(self) -> str:  # KeyError.__str__ would repr() args[0]
        return self.args[0]


class BackupError(ReproError):
    """Raised when a backup session cannot be completed."""


class RestoreError(ReproError):
    """Raised when a restore cannot be completed."""


class IntegrityError(RestoreError):
    """Raised when restored data fails fingerprint/CRC verification."""


class WorkloadError(ReproError):
    """Raised by the synthetic workload generators."""


class SimulationError(ReproError):
    """Raised by the virtual-time simulation substrate."""
