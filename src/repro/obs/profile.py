"""Per-stage and per-application profiles from a span set.

A raw trace answers "what happened when"; the profile answers the
question that motivates a performance PR: *which stage dominates this
workload*.  Aggregation is by **self time** — each span's duration minus
the durations of its direct children — so nested instrumentation never
double-counts: a ``file`` span's self time is only the engine glue not
attributed to its ``chunk``/``hash``/``index.lookup`` children, and the
self times of every span in a single-threaded session sum exactly to the
session window.

Stage names are grouped into the canonical pipeline stages of the paper
(chunk / hash / index / transfer) for the per-application table; the
full stage table keeps every distinct span name.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.metrics.report import Table
from repro.obs.tracer import Span

__all__ = ["StageRow", "stage_breakdown", "render_profile",
           "stage_group", "overlap_seconds"]

#: Span names that define the profiling window when present.
_ROOT_NAMES = ("session", "restore")

#: Ordered (prefix -> canonical stage) mapping for per-app aggregation.
_STAGE_GROUPS = (
    ("read", "read"),
    ("chunk", "chunk"),
    ("hash", "hash"),
    ("statcache", "statcache"),
    ("index", "index"),
    ("upload", "transfer"),
    ("cloud.", "transfer"),
    ("retry", "transfer"),
    ("container", "container"),
    ("durability", "durability"),
    ("service", "service"),
)

#: Canonical stage order for the occupancy table (pipeline order).
_OCCUPANCY_ORDER = ("read", "chunk", "hash", "statcache", "index",
                    "container", "transfer", "durability", "service",
                    "other")


def stage_group(name: str) -> str:
    """Canonical pipeline stage for a span name (``"other"`` fallback)."""
    for prefix, group in _STAGE_GROUPS:
        if name.startswith(prefix):
            return group
    return "other"


@dataclass
class StageRow:
    """Aggregate for one span name."""

    stage: str
    calls: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    bytes: int = 0


@dataclass
class Profile:
    """Everything ``repro trace-profile`` renders."""

    window_seconds: float
    stages: Dict[str, StageRow] = field(default_factory=dict)
    #: app label -> canonical stage -> self seconds.
    apps: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Self time of spans inside a root span (sums to the window on a
    #: single thread) vs. spans outside any root (client construction,
    #: close-time flushes — real work, but not part of a backup window).
    accounted_seconds: float = 0.0
    outside_seconds: float = 0.0
    #: Boundary-engine name -> aggregated ``chunk.cut`` scan row, so a
    #: profile shows which chunker burned the scan time and at what
    #: throughput (the fast-chunker family makes this a real choice).
    chunkers: Dict[str, StageRow] = field(default_factory=dict)
    #: Canonical stage -> merged busy intervals (self time only, so a
    #: sync ``upload`` nested inside ``container.seal`` never fakes
    #: cross-stage overlap).  Input for the occupancy table.
    stage_intervals: Dict[str, List[tuple]] = field(default_factory=dict)

    def stage_busy(self, stage: str) -> float:
        """Total busy seconds of one canonical stage."""
        return sum(e - s for s, e in self.stage_intervals.get(stage, ()))

    def stage_concurrency(self, stage: str) -> float:
        """Seconds this stage was busy while *any other* stage was too —
        the overlap the paper's pipelining claim is about."""
        others: List[tuple] = []
        for name, intervals in self.stage_intervals.items():
            if name != stage:
                others.extend(intervals)
        return overlap_seconds(self.stage_intervals.get(stage, ()),
                               _merge_intervals(others))


def _self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id (duration minus direct children)."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.duration
    return {span.span_id: span.duration - child_time[span.span_id]
            for span in spans}


def _merge_intervals(intervals) -> List[tuple]:
    """Union of (start, end) intervals as a sorted disjoint list."""
    merged: List[tuple] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _subtract_intervals(start: float, end: float,
                        blockers: Sequence[tuple]) -> List[tuple]:
    """``[start, end)`` minus a merged-sorted list of blockers."""
    out: List[tuple] = []
    cursor = start
    for b_start, b_end in blockers:
        if b_end <= cursor:
            continue
        if b_start >= end:
            break
        if b_start > cursor:
            out.append((cursor, min(b_start, end)))
        cursor = max(cursor, b_end)
        if cursor >= end:
            break
    if cursor < end:
        out.append((cursor, end))
    return out


def overlap_seconds(a: Sequence[tuple], b: Sequence[tuple]) -> float:
    """Measure of the intersection of two merged interval lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def stage_breakdown(spans: Sequence[Span]) -> Profile:
    """Aggregate a span set into a :class:`Profile`.

    The window is the total duration of ``session``/``restore`` root
    spans when any exist, else the overall start-to-end extent of the
    trace.  With concurrent threads (pipelined uploads, parallel
    workers) stage self times can legitimately sum past the window —
    that overlap is the parallelism the profile makes visible.
    """
    spans = list(spans)
    roots = [s for s in spans if s.name in _ROOT_NAMES]
    if roots:
        window = sum(s.duration for s in roots)
    elif spans:
        window = (max(s.end for s in spans)
                  - min(s.start for s in spans))
    else:
        window = 0.0

    # Which spans lie inside a root?  Self time outside (client setup,
    # close-time flushes) is tracked separately so the in-window total
    # can be compared against the window itself.
    if roots:
        children: Dict[int, List[int]] = defaultdict(list)
        for span in spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span.span_id)
        in_window = set()
        stack = [root.span_id for root in roots]
        while stack:
            sid = stack.pop()
            if sid in in_window:
                continue
            in_window.add(sid)
            stack.extend(children[sid])
    else:
        in_window = {span.span_id for span in spans}

    selves = _self_times(spans)
    by_id = {span.span_id: span for span in spans}
    child_spans: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            child_spans[span.parent_id].append(span)

    def app_of(span: Span) -> object:
        # A span belongs to the app of its nearest ancestor that names
        # one — so a ``cloud.put.attempt`` under an app-labelled
        # ``upload`` is charged to that application.
        while span is not None:
            app = span.attrs.get("app")
            if app is not None:
                return app
            span = by_id.get(span.parent_id)
        return None

    profile = Profile(window_seconds=window)
    for span in spans:
        if span.span_id in in_window:
            profile.accounted_seconds += selves[span.span_id]
        else:
            profile.outside_seconds += selves[span.span_id]
        row = profile.stages.get(span.name)
        if row is None:
            row = profile.stages[span.name] = StageRow(stage=span.name)
        row.calls += 1
        row.total_seconds += span.duration
        row.self_seconds += selves[span.span_id]
        nbytes = span.attrs.get("bytes")
        if isinstance(nbytes, (int, float)):
            row.bytes += int(nbytes)

        app = app_of(span)
        if isinstance(app, str) and span.name not in _ROOT_NAMES:
            per_app = profile.apps.setdefault(app, defaultdict(float))
            per_app[stage_group(span.name)] += selves[span.span_id]

        # Occupancy: each span contributes its *self* intervals — its
        # extent minus direct children — to its canonical stage, so a
        # span nested under a different stage's span never double-books
        # the same wall time against both stages.
        if span.name not in _ROOT_NAMES:
            kids = _merge_intervals(
                (c.start, c.end)
                for c in child_spans.get(span.span_id, ()))
            own = _subtract_intervals(span.start, span.end, kids)
            if own:
                profile.stage_intervals.setdefault(
                    stage_group(span.name), []).extend(own)

        if span.name == "chunk.cut":
            engine = span.attrs.get("chunker")
            if isinstance(engine, str):
                crow = profile.chunkers.get(engine)
                if crow is None:
                    crow = profile.chunkers[engine] = StageRow(stage=engine)
                crow.calls += 1
                crow.total_seconds += span.duration
                crow.self_seconds += selves[span.span_id]
                if isinstance(nbytes, (int, float)):
                    crow.bytes += int(nbytes)
    for stage, intervals in profile.stage_intervals.items():
        profile.stage_intervals[stage] = _merge_intervals(intervals)
    return profile


_APP_COLUMNS = ("read", "chunk", "hash", "statcache", "index",
                "container", "transfer", "other")


def render_profile(spans: Sequence[Span]) -> str:
    """Render the stage and per-application tables as aligned text."""
    profile = stage_breakdown(spans)
    if not profile.stages:
        return "trace contains no spans"
    window = profile.window_seconds

    def share(seconds: float) -> str:
        if window <= 0:
            return "-"
        return f"{100.0 * seconds / window:.1f}%"

    title = (f"Stage breakdown (window {window:.6f} s, "
             f"accounted {profile.accounted_seconds:.6f} s")
    if profile.outside_seconds > 0:
        title += f", outside window {profile.outside_seconds:.6f} s"
    stage_table = Table(
        ["stage", "calls", "total s", "self s", "share", "bytes"],
        title=title + ")")
    ordered = sorted(profile.stages.values(),
                     key=lambda row: (-row.self_seconds, row.stage))
    for row in ordered:
        stage_table.add_row([
            row.stage, row.calls, f"{row.total_seconds:.6f}",
            f"{row.self_seconds:.6f}", share(row.self_seconds),
            row.bytes or ""])
    sections = [stage_table.render()]

    if profile.chunkers:
        cut_table = Table(
            ["chunker", "scans", "bytes", "scan s", "MB/s"],
            title="Boundary-scan profile (chunk.cut spans per engine)")
        for engine in sorted(profile.chunkers):
            row = profile.chunkers[engine]
            rate = (row.bytes / row.total_seconds / 1e6
                    if row.total_seconds > 0 else 0.0)
            cut_table.add_row([engine, row.calls, row.bytes,
                               f"{row.total_seconds:.6f}",
                               f"{rate:.1f}"])
        sections.append(cut_table.render())

    if profile.stage_intervals:
        occ_table = Table(
            ["stage", "busy s", "busy %", "concurrent s", "concurrent %"],
            title="Stage occupancy (self-interval unions per canonical "
                  "stage; 'concurrent' = busy while any other stage was "
                  "busy — the pipelining overlap)")
        known = set(_OCCUPANCY_ORDER)
        ordered_stages = [s for s in _OCCUPANCY_ORDER
                          if s in profile.stage_intervals]
        ordered_stages += sorted(s for s in profile.stage_intervals
                                 if s not in known)
        for stage in ordered_stages:
            busy = profile.stage_busy(stage)
            concurrent = profile.stage_concurrency(stage)
            occ_table.add_row([
                stage, f"{busy:.6f}", share(busy),
                f"{concurrent:.6f}",
                f"{100.0 * concurrent / busy:.1f}%" if busy > 0 else "-"])
        sections.append(occ_table.render())

    if profile.apps:
        app_table = Table(["app"] + [f"{c} %" for c in _APP_COLUMNS]
                          + ["total s"],
                          title="Per-application stage shares "
                                "(% of the app's own traced time)")
        for app in sorted(profile.apps):
            per_stage = profile.apps[app]
            total = sum(per_stage.values())
            cells: List[str] = [app]
            for column in _APP_COLUMNS:
                seconds = per_stage.get(column, 0.0)
                cells.append(f"{100.0 * seconds / total:.1f}"
                             if total > 0 else "-")
            cells.append(f"{total:.6f}")
            app_table.add_row(cells)
        sections.append(app_table.render())
    return "\n\n".join(sections)
