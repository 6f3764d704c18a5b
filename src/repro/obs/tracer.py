"""Span-based tracer on an injectable clock.

A *span* is one named, timed, attributed interval of work.  Spans nest:
each thread keeps its own stack of active spans, so a span opened while
another is active on the same thread becomes its child.  Timing comes
from whatever clock the tracer was built with — the real
:class:`~repro.util.timer.WallClock` for profiling a live backup, or a
:class:`~repro.simulate.clock.VirtualClock` so tests see deterministic
durations with no wall-clock flakiness.

Export is Chrome-trace-compatible: :meth:`Tracer.export_jsonl` emits one
complete ``trace_event`` object (phase ``"X"``) per line; the file loads
directly in ``chrome://tracing`` / Perfetto, and :func:`load_spans`
round-trips it back into :class:`Span` records for offline analysis
(``repro trace-profile``).

The default tracer everywhere is :data:`NOOP_TRACER`.  Instrumented
code has one form — ``with tracer.span(...):`` — whether tracing is on
or off: a no-op span costs about half a microsecond (the keyword dict
plus three calls), so nothing forks on ``enabled`` except recording
into ``tracer.metrics``, which is ``None`` on the no-op tracer.
"""

from __future__ import annotations

import io
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.util.timer import ClockProtocol, WallClock

__all__ = ["Span", "Tracer", "NoopTracer", "NOOP_TRACER", "load_spans"]


@dataclass
class Span:
    """One finished timed interval."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    thread: str = "main"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds between start and end."""
        return self.end - self.start

    def to_trace_event(self, tid: int) -> dict:
        """Render as a Chrome ``trace_event`` complete event (phase X).

        Timestamps/durations are microseconds per the format.  The span
        and parent ids travel in ``args`` so the JSON round-trips
        losslessly through :func:`load_spans`.
        """
        args = dict(self.attrs)
        args["sid"] = self.span_id
        if self.parent_id is not None:
            args["psid"] = self.parent_id
        args["thread"] = self.thread
        # Exact seconds: the μs ts/dur below are rounded for Chrome, so
        # carry full-precision times too, keeping the round-trip through
        # load_spans lossless (profiles re-rendered from a trace file
        # match the live render bit for bit).
        args["t0"] = self.start
        args["d"] = self.duration
        return {
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": round(self.start * 1e6, 3),
            "dur": round(self.duration * 1e6, 3),
            "pid": 0,
            "tid": tid,
            "args": args,
        }


class _ActiveSpan:
    """Context manager handle for one in-flight span."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set(self, key: str, value) -> None:
        """Attach/overwrite one attribute on the span."""
        self.span.attrs[key] = value

    @property
    def duration(self) -> float:
        """Duration so far (final once the span has exited)."""
        if self.span.end < self.span.start:
            return self._tracer.clock.now() - self.span.start
        return self.span.duration

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self.span)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._pop(self.span)


class Tracer:
    """Collects nested spans against one clock.

    Thread-safe: each thread nests spans independently (a span started
    on the pipelined-upload worker is a root on that thread), and the
    finished-span list is lock-protected.  ``metrics`` is the registry
    instrumented components record into; one is created when not given.
    """

    enabled = True

    def __init__(self,
                 clock: ClockProtocol | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._finished: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span; use as a context manager.

        >>> tracer = Tracer()
        >>> with tracer.span("work", bytes=3) as sp:
        ...     sp.set("note", "done")
        >>> tracer.spans()[0].name
        'work'
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(span_id=span_id, parent_id=parent_id, name=name,
                    start=self.clock.now(), end=-1.0,
                    thread=threading.current_thread().name, attrs=attrs)
        return _ActiveSpan(self, span)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.clock.now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misuse guard (overlapping exits)
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._finished.append(span)

    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Finished spans, ordered by start time (then id)."""
        with self._lock:
            return sorted(self._finished,
                          key=lambda s: (s.start, s.span_id))

    def clear(self) -> None:
        """Drop all finished spans (between profiling runs)."""
        with self._lock:
            self._finished.clear()

    # ------------------------------------------------------------------
    def export_jsonl(self) -> str:
        """All finished spans as ``trace_event`` JSON lines."""
        tids: Dict[str, int] = {}
        out = io.StringIO()
        for span in self.spans():
            tid = tids.setdefault(span.thread, len(tids))
            out.write(json.dumps(span.to_trace_event(tid),
                                 sort_keys=True))
            out.write("\n")
        return out.getvalue()

    def write_jsonl(self, path) -> None:
        """Write :meth:`export_jsonl` output to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_jsonl())


def load_spans(lines: Iterable[str] | str) -> List[Span]:
    """Parse trace_event JSON lines back into :class:`Span` records.

    Accepts the string produced by :meth:`Tracer.export_jsonl`, an open
    file, or any iterable of lines.  Events that are not complete
    (``"X"``) spans are skipped, so a trace enriched with other phases
    still loads.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    spans: List[Span] = []
    for line in lines:
        line = line.strip().rstrip(",")
        if not line or line in ("[", "]"):
            continue
        event = json.loads(line)
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("sid", len(spans) + 1)
        parent_id = args.pop("psid", None)
        thread = args.pop("thread", str(event.get("tid", 0)))
        start = args.pop("t0", event["ts"] / 1e6)
        duration = args.pop("d", event.get("dur", 0) / 1e6)
        spans.append(Span(span_id=span_id, parent_id=parent_id,
                          name=event["name"], start=start,
                          end=start + duration,
                          thread=thread, attrs=args))
    return sorted(spans, key=lambda s: (s.start, s.span_id))


class _NoopSpan:
    """Shared do-nothing span handle."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    @property
    def duration(self) -> float:
        return 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: every ``span()`` is the same inert handle.

    ``metrics`` is ``None`` by design — recording into it is the one
    thing callers guard with ``tracer.enabled``.
    """

    enabled = False
    metrics = None

    def span(self, name: str, **attrs) -> _NoopSpan:
        """Return the shared no-op handle (attrs are discarded)."""
        return _NOOP_SPAN

    def spans(self) -> List[Span]:
        """A no-op tracer never records anything."""
        return []


#: Process-wide default: tracing disabled.
NOOP_TRACER = NoopTracer()
