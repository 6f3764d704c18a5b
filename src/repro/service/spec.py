"""Declarative job specs: YAML/dict configs parsed into dataclasses.

The schema follows the BackupPlan shape of the exemplar data model —
per-job source, scheme, ``{interval, offset}`` schedule, retention
policy, hooks and tags — validated eagerly so every mistake surfaces as
a :class:`~repro.errors.ConfigError` *before* any job runs (the CLI
maps that to exit code 2).  A minimal config::

    jobs:
      - name: documents
        source: {path: /home/me/Documents}
        schedule: {interval: 86400, offset: 3600}
        retention: {policy: retain-last, count: 7}

Everything else defaults to the paper's AA-Dedupe scheme.  See
``docs/SERVICE.md`` for the full schema and ``examples/jobs.yaml`` for
a worked multi-job file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.baselines import build_scheme
from repro.core.options import SchemeConfig
from repro.core.retention import RetainLastN, RetainMaxAge
from repro.errors import ConfigError
from repro.service.hooks import HookSet, HookSpec
from repro.service.schedule import IntervalSchedule
from repro.service.sources import (
    CallableJobSource,
    DirectoryJobSource,
    JobSource,
    SyntheticJobSource,
)
from repro.util.units import parse_size

__all__ = ["JobSpec", "ServiceSpec", "parse_config", "load_config",
           "loads_config"]

_TOP_KEYS = {"jobs", "until"}
_JOB_KEYS = {"name", "scheme", "chunker", "app_chunkers",
             "container_size", "delta", "stat_cache", "pipeline",
             "parallel", "options", "schedule", "retention", "hooks",
             "tags", "source"}
_SOURCE_KEYS = {"kind", "path", "prefix", "seed", "files", "file_kib",
                "churn"}
_SCHEDULE_KEYS = {"interval", "offset"}
_RETENTION_KEYS = {"policy", "count", "seconds"}
_HOOKS_KEYS = {"pre", "post", "failure_policy"}
_HOOK_KEYS = {"name", "run", "builtin"}


def _fail(context: str, message: str) -> "ConfigError":
    return ConfigError(f"{context}: {message}")


def _check_keys(doc: Mapping, allowed: set, context: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise _fail(context,
                    f"unknown key(s) {', '.join(map(repr, unknown))}; "
                    f"allowed: {', '.join(sorted(allowed))}")


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(context, f"expected a number, got {value!r}")
    return float(value)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SourceSpec:
    """Parsed ``source:`` block; builds the runtime JobSource."""

    kind: str                      # "directory" | "synthetic"
    path: Optional[str] = None
    prefix: Optional[str] = None   # synthetic: defaults to the job name
    seed: int = 2011
    files: int = 6
    file_kib: int = 24
    churn: float = 0.25

    def build(self, job_name: str) -> JobSource:
        if self.kind == "directory":
            return DirectoryJobSource(self.path)
        return SyntheticJobSource(self.prefix or job_name,
                                  seed=self.seed, files=self.files,
                                  file_kib=self.file_kib,
                                  churn=self.churn)

    def describe(self) -> str:
        if self.kind == "directory":
            return self.path or "?"
        return (f"synthetic(files={self.files}, "
                f"{self.file_kib} KiB, churn={self.churn})")


def _parse_source(doc, context: str) -> _SourceSpec:
    if isinstance(doc, str):
        return _SourceSpec(kind="directory", path=doc)
    if not isinstance(doc, Mapping):
        raise _fail(context, "source must be a path string or a mapping")
    _check_keys(doc, _SOURCE_KEYS, context)
    kind = doc.get("kind")
    if kind is None:
        kind = "directory" if "path" in doc else "synthetic"
    if kind == "directory":
        path = doc.get("path")
        if not isinstance(path, str) or not path:
            raise _fail(context, "directory source needs a path")
        return _SourceSpec(kind="directory", path=path)
    if kind != "synthetic":
        raise _fail(context, f"unknown source kind {kind!r}; "
                             f"valid: directory, synthetic")
    spec = {}
    for key in ("seed", "files", "file_kib"):
        if key in doc:
            value = doc[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise _fail(context, f"{key} must be an integer")
            spec[key] = value
    if "churn" in doc:
        churn = _number(doc["churn"], f"{context}: churn")
        if not (0.0 <= churn <= 1.0):
            raise _fail(context, f"churn must be in [0, 1], got {churn}")
        spec["churn"] = churn
    if "prefix" in doc:
        if not isinstance(doc["prefix"], str) or not doc["prefix"]:
            raise _fail(context, "prefix must be a non-empty string")
        spec["prefix"] = doc["prefix"]
    if spec.get("files", 6) < 1 or spec.get("file_kib", 24) < 1:
        raise _fail(context, "files and file_kib must be >= 1")
    return _SourceSpec(kind="synthetic", **spec)


def _parse_schedule(doc, context: str) -> IntervalSchedule:
    if not isinstance(doc, Mapping):
        raise _fail(context, "schedule must be a mapping with interval "
                             "(seconds) and optional offset")
    _check_keys(doc, _SCHEDULE_KEYS, context)
    if "interval" not in doc:
        raise _fail(context, "schedule needs an interval (seconds)")
    interval = _number(doc["interval"], f"{context}: interval")
    offset = _number(doc.get("offset", 0.0), f"{context}: offset")
    return IntervalSchedule(interval=interval, offset=offset)


def _parse_retention(doc, context: str):
    if not isinstance(doc, Mapping):
        raise _fail(context, "retention must be a mapping with a policy")
    _check_keys(doc, _RETENTION_KEYS, context)
    policy = doc.get("policy")
    if policy in ("retain-last", "last"):
        count = doc.get("count")
        if isinstance(count, bool) or not isinstance(count, int):
            raise _fail(context, "retain-last needs an integer count")
        return RetainLastN(count)
    if policy in ("max-age", "age"):
        if "seconds" not in doc:
            raise _fail(context, "max-age needs seconds")
        return RetainMaxAge(_number(doc["seconds"],
                                    f"{context}: seconds"))
    raise _fail(context, f"unknown retention policy {policy!r}; "
                         f"valid: retain-last, max-age")


def _parse_hook(doc, context: str) -> HookSpec:
    if isinstance(doc, str):
        return HookSpec(command=doc)
    if not isinstance(doc, Mapping):
        raise _fail(context, "a hook is a command string or a mapping "
                             "with run:/builtin:")
    _check_keys(doc, _HOOK_KEYS, context)
    return HookSpec(command=doc.get("run"), builtin=doc.get("builtin"),
                    name=doc.get("name", ""))


def _parse_hooks(doc, context: str) -> HookSet:
    if not isinstance(doc, Mapping):
        raise _fail(context, "hooks must be a mapping")
    _check_keys(doc, _HOOKS_KEYS, context)

    def hook_list(key: str) -> tuple:
        entries = doc.get(key, ())
        if isinstance(entries, (str, Mapping)):
            entries = [entries]
        if not isinstance(entries, Sequence):
            raise _fail(context, f"{key} must be a list of hooks")
        return tuple(_parse_hook(entry, f"{context}: {key}[{i}]")
                     for i, entry in enumerate(entries))

    return HookSet(pre=hook_list("pre"), post=hook_list("post"),
                   failure_policy=doc.get("failure_policy", "abort"))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One declarative backup job (parsed and validated).

    ``name`` doubles as the job's tenant namespace on the shared
    backend (``clients/<name>/…``), so it must be namespace-safe.
    """

    name: str
    source: Union[_SourceSpec, JobSource, None] = None
    scheme: str = "AA-Dedupe"
    chunker: Optional[str] = None
    app_chunkers: Mapping[str, str] = field(default_factory=dict)
    container_size: Optional[int] = None
    delta: Optional[bool] = None
    stat_cache: Optional[bool] = None
    pipeline: Optional[bool] = None
    parallel: Optional[int] = None
    options: Mapping[str, object] = field(default_factory=dict)
    schedule: Optional[IntervalSchedule] = None
    retention: Optional[object] = None
    hooks: HookSet = field(default_factory=HookSet)
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        name = self.name
        if (not name or not all(c.isalnum() or c in "-_." for c in name)
                or name in (".", "..")):
            raise ConfigError(
                f"job name {name!r} is not namespace-safe (letters, "
                f"digits, '-', '_', '.' only)")
        # Fail on config mistakes now, not at run time.
        self.scheme_config()

    # ------------------------------------------------------------------
    def scheme_config(self) -> SchemeConfig:
        """Build the job's :class:`SchemeConfig` (raises ConfigError)."""
        try:
            return build_scheme(
                self.scheme, container_size=self.container_size,
                chunker=self.chunker,
                app_chunkers=dict(self.app_chunkers) or None,
                delta=self.delta, stat_cache=self.stat_cache,
                pipeline=self.pipeline, parallel=self.parallel,
                options=self.options)
        except ConfigError as exc:
            raise ConfigError(f"job {self.name!r}: {exc}") from exc

    def make_source(self) -> JobSource:
        """Build this job's runtime source (raises ConfigError if none)."""
        if self.source is None:
            raise ConfigError(f"job {self.name!r} has no source")
        if isinstance(self.source, _SourceSpec):
            return self.source.build(self.name)
        if isinstance(self.source, JobSource):
            return self.source
        return CallableJobSource(self.source)

    def describe_source(self) -> str:
        if isinstance(self.source, _SourceSpec):
            return self.source.describe()
        return type(self.source).__name__ if self.source else "-"


def _parse_job(doc, index: int) -> JobSpec:
    context = f"jobs[{index}]"
    if not isinstance(doc, Mapping):
        raise _fail(context, "each job must be a mapping")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise _fail(context, "every job needs a non-empty name")
    context = f"job {name!r}"
    _check_keys(doc, _JOB_KEYS, context)
    if "source" not in doc:
        raise _fail(context, "every job needs a source")
    kwargs: dict = {
        "name": name,
        "source": _parse_source(doc["source"], f"{context}: source"),
    }
    if "scheme" in doc:
        if not isinstance(doc["scheme"], str):
            raise _fail(context, "scheme must be a string")
        kwargs["scheme"] = doc["scheme"]
    if "chunker" in doc:
        if not isinstance(doc["chunker"], str):
            raise _fail(context, "chunker must be a string")
        kwargs["chunker"] = doc["chunker"]
    if "app_chunkers" in doc:
        table = doc["app_chunkers"]
        if not isinstance(table, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in table.items()):
            raise _fail(context,
                        "app_chunkers must map app labels to chunkers")
        kwargs["app_chunkers"] = dict(table)
    if "container_size" in doc:
        raw = doc["container_size"]
        try:
            kwargs["container_size"] = (
                raw if isinstance(raw, int) and not isinstance(raw, bool)
                else parse_size(str(raw)))
        except (ValueError, TypeError) as exc:
            raise _fail(context, f"bad container_size: {exc}") from exc
    for key, dest in (("delta", "delta"), ("stat_cache", "stat_cache"),
                      ("pipeline", "pipeline")):
        if key in doc:
            if not isinstance(doc[key], bool):
                raise _fail(context, f"{key} must be true/false")
            kwargs[dest] = doc[key]
    if "parallel" in doc:
        value = doc["parallel"]
        if isinstance(value, bool) or not isinstance(value, int):
            raise _fail(context, "parallel must be an integer")
        kwargs["parallel"] = value
    if "options" in doc:
        if not isinstance(doc["options"], Mapping):
            raise _fail(context, "options must be a mapping")
        kwargs["options"] = dict(doc["options"])
    if "schedule" in doc:
        kwargs["schedule"] = _parse_schedule(doc["schedule"],
                                             f"{context}: schedule")
    if "retention" in doc:
        kwargs["retention"] = _parse_retention(doc["retention"],
                                               f"{context}: retention")
    if "hooks" in doc:
        kwargs["hooks"] = _parse_hooks(doc["hooks"], f"{context}: hooks")
    if "tags" in doc:
        tags = doc["tags"]
        if isinstance(tags, str):
            tags = [tags]
        if not isinstance(tags, Sequence) or not all(
                isinstance(t, str) for t in tags):
            raise _fail(context, "tags must be a list of strings")
        kwargs["tags"] = tuple(tags)
    return JobSpec(**kwargs)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceSpec:
    """A full service configuration: the job list plus loop defaults."""

    jobs: Tuple[JobSpec, ...]
    #: Default schedule horizon (seconds of virtual time) for
    #: ``BackupService.run()``; ``None`` means one-shot mode unless the
    #: caller passes a horizon.
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ConfigError("config defines no jobs")
        seen = set()
        for job in self.jobs:
            if job.name in seen:
                raise ConfigError(f"duplicate job name {job.name!r}")
            seen.add(job.name)

    def job(self, name: str) -> JobSpec:
        for job in self.jobs:
            if job.name == name:
                return job
        names = ", ".join(j.name for j in self.jobs)
        raise ConfigError(f"no job named {name!r}; defined: {names}")

    def job_names(self) -> Tuple[str, ...]:
        return tuple(job.name for job in self.jobs)


def parse_config(doc) -> ServiceSpec:
    """Validate a parsed YAML/JSON document into a :class:`ServiceSpec`."""
    if not isinstance(doc, Mapping):
        raise ConfigError("config root must be a mapping with a "
                          "'jobs' list")
    _check_keys(doc, _TOP_KEYS, "config")
    jobs_doc = doc.get("jobs")
    if not isinstance(jobs_doc, Sequence) or isinstance(jobs_doc, str):
        raise ConfigError("config needs a 'jobs' list")
    jobs = tuple(_parse_job(job, i) for i, job in enumerate(jobs_doc))
    until = None
    if "until" in doc:
        until = _number(doc["until"], "config: until")
        if until < 0:
            raise ConfigError("config: until must be >= 0")
    return ServiceSpec(jobs=jobs, until=until)


def loads_config(text: str) -> ServiceSpec:
    """Parse a YAML (or JSON) config string."""
    try:
        import yaml
    except ImportError:  # pragma: no cover - yaml is an optional extra
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigError(
                f"PyYAML is not installed and the config is not valid "
                f"JSON: {exc}") from exc
        return parse_config(doc)
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    return parse_config(doc)


def load_config(path) -> ServiceSpec:
    """Read and validate a config file (CLI ``--config``)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return loads_config(text)
