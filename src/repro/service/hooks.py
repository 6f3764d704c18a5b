"""Pre/post job hooks: shell commands and builtins.

A hook either runs a shell command (``run: "pg_dump ..."`` — the
deployable path, with the job's identity exported through ``REPRO_*``
environment variables) or invokes one of the builtin Python callables by
name (``builtin: noop`` — zero-subprocess hooks for tests and embedded
deployments).  A hook *fails* when the command exits non-zero or the
callable raises; what a failure means is the job's ``failure_policy``
decision (``abort`` vs ``warn``), applied by the runner:

* failing **pre**-hook + ``abort`` — the job is marked FAILED and the
  engine is never invoked;
* failing **pre**-hook + ``warn`` — a warning line, the backup runs;
* failing **post**-hook + ``abort`` — the job is FAILED *after* a
  successful session (the manifest exists; the failure is operational);
* failing **post**-hook + ``warn`` — the job stays SUCCEEDED with a
  warning line.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from repro.errors import ConfigError

__all__ = ["HookSpec", "HookResult", "HookSet", "run_hook"]

#: Wall-clock ceiling for one shell hook; a hung hook must not wedge
#: the whole service loop.
HOOK_TIMEOUT_SECONDS = 120.0


def _builtin_noop(env: Mapping[str, str]) -> None:
    return None


def _builtin_fail(env: Mapping[str, str]) -> None:
    raise RuntimeError("builtin hook 'fail' always fails")


#: The builtin hooks a job's ``builtin:`` names.
_BUILTINS: Dict[str, Callable[[Mapping[str, str]], None]] = {
    "noop": _builtin_noop,
    "fail": _builtin_fail,
}


@dataclass(frozen=True)
class HookSpec:
    """One hook: exactly one of ``command`` (shell) or ``builtin``."""

    command: Optional[str] = None
    builtin: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if (self.command is None) == (self.builtin is None):
            raise ConfigError(
                "a hook needs exactly one of run:/builtin:")
        if self.builtin is not None and self.builtin not in _BUILTINS:
            raise ConfigError(
                f"unknown builtin hook {self.builtin!r}; registered: "
                f"{', '.join(sorted(_BUILTINS))}")

    @property
    def label(self) -> str:
        """Display name for logs and reports."""
        if self.name:
            return self.name
        if self.builtin is not None:
            return f"builtin:{self.builtin}"
        return self.command or "<hook>"


@dataclass(frozen=True)
class HookSet:
    """A job's hooks plus the failure policy that governs them."""

    pre: tuple = ()
    post: tuple = ()
    failure_policy: str = "abort"

    def __post_init__(self) -> None:
        if self.failure_policy not in ("abort", "warn"):
            raise ConfigError(
                f"hook failure_policy must be 'abort' or 'warn', "
                f"got {self.failure_policy!r}")


@dataclass
class HookResult:
    """Outcome of one hook execution."""

    ok: bool
    detail: str = ""
    output: str = field(default="", repr=False)


def run_hook(spec: HookSpec, env: Mapping[str, str]) -> HookResult:
    """Execute one hook; never raises — failures come back as results."""
    if spec.builtin is not None:
        try:
            _BUILTINS[spec.builtin](env)
        except Exception as exc:  # noqa: BLE001 - hook code is user code
            return HookResult(False, f"{type(exc).__name__}: {exc}")
        return HookResult(True)
    try:
        proc = subprocess.run(
            spec.command, shell=True, capture_output=True, text=True,
            env={**os.environ, **env}, timeout=HOOK_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        return HookResult(
            False, f"timed out after {HOOK_TIMEOUT_SECONDS:.0f}s")
    except OSError as exc:
        return HookResult(False, f"could not run: {exc}")
    output = (proc.stdout or "") + (proc.stderr or "")
    if proc.returncode != 0:
        tail = output.strip().splitlines()[-1] if output.strip() else ""
        detail = f"exit {proc.returncode}"
        if tail:
            detail += f": {tail}"
        return HookResult(False, detail, output)
    return HookResult(True, output=output)
