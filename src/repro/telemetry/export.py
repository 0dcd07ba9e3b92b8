"""Trace sinks: JSON-lines, Chrome trace-event format, and a text report.

Three consumers of one span stream:

* :func:`write_jsonl` — one JSON object per line (``{"type": "span"}``
  records plus one trailing ``{"type": "metrics"}`` record when a
  registry is passed); grep-able, diff-able, streaming-friendly.
* :func:`write_chrome_trace` — the Chrome/Perfetto trace-event format
  (open ``chrome://tracing`` or https://ui.perfetto.dev and load the
  file).  Spans become ``"ph": "X"`` complete events; each recording
  thread becomes its own lane (``tid``) labeled with thread-name
  metadata, so a ``--jobs 4`` sweep shows four ``repro-compile-N`` lanes
  of compile spans under the caller's sweep span.  A span carrying a
  ``lane`` attribute (the daemon tags every ``server.request`` with
  ``lane=client:<id>``) is pulled out of its recording thread into a
  synthetic lane named after the attribute — a multi-client daemon
  trace reads as one swimlane per client, regardless of which handler
  thread happened to serve each request.
* :func:`text_report` — the plain-text hierarchical view (what the
  ``repro telemetry`` subcommand prints); subsumes the flat event dump
  of ``Profiler.report()``.

:func:`load_trace` reads either file format back into :class:`Span`
objects, so a saved trace can be re-rendered offline.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .registry import MetricsRegistry
from .spans import Span, SpanEvent, Tracer

__all__ = [
    "TraceFileError",
    "load_trace",
    "span_record",
    "text_report",
    "timeline_coverage",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]

#: synthetic pid for the single simulated process
_PID = 1


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def span_record(span: Span) -> dict[str, Any]:
    """One span as a JSON-safe dict (the JSONL schema)."""
    return {
        "type": "span",
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "category": span.category,
        "thread_id": span.thread_id,
        "thread_name": span.thread_name,
        "error": span.error,
        "attributes": {k: _jsonable(v) for k, v in span.attributes.items()},
        "events": [
            {
                "name": event.name,
                "at_s": event.at_s,
                "attributes": {
                    k: _jsonable(v) for k, v in event.attributes.items()
                },
            }
            for event in span.events
        ],
    }


def _spans_of(source: "Tracer | Iterable[Span]") -> list[Span]:
    if isinstance(source, Tracer):
        return source.spans()
    return list(source)


def write_jsonl(path: str, source: "Tracer | Iterable[Span]",
                registry: MetricsRegistry | None = None) -> int:
    """Write spans (and an optional metrics snapshot) as JSON lines;
    returns the number of span records written."""
    spans = sorted(_spans_of(source), key=lambda s: (s.start_s, s.span_id))
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span_record(span), sort_keys=True) + "\n")
        if registry is not None:
            fh.write(
                json.dumps(
                    {"type": "metrics", "snapshot": registry.snapshot()},
                    sort_keys=True,
                )
                + "\n"
            )
    return len(spans)


def chrome_trace_events(spans: Iterable[Span],
                        registry: MetricsRegistry | None = None
                        ) -> list[dict[str, Any]]:
    """The ``traceEvents`` list for one span stream (ts-sorted)."""
    spans = list(spans)
    events: list[dict[str, Any]] = []
    lanes: dict[int, str] = {}
    for span in spans:
        lanes.setdefault(span.thread_id, span.thread_name)
    # named lanes: spans tagged with a `lane` attribute (e.g. the daemon's
    # lane=client:<id>) get synthetic tids so each named lane renders as
    # one swimlane independent of the serving thread
    named = sorted(
        {str(s.attributes["lane"]) for s in spans if s.attributes.get("lane")}
    )
    base_tid = max(lanes, default=0) + 1
    lane_tids = {name: base_tid + i for i, name in enumerate(named)}
    for span in spans:
        if not span.finished:
            continue
        lane = span.attributes.get("lane")
        tid = lane_tids[str(lane)] if lane else span.thread_id
        args = {k: _jsonable(v) for k, v in span.attributes.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.error:
            args["error"] = span.error
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": _PID,
                "tid": tid,
                "args": args,
            }
        )
        for event in span.events:
            events.append(
                {
                    "name": event.name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": event.at_s * 1e6,
                    "pid": _PID,
                    "tid": tid,
                    "args": {
                        k: _jsonable(v) for k, v in event.attributes.items()
                    },
                }
            )
    events.sort(key=lambda e: (e["ts"], e.get("dur", 0.0)))
    meta: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro tool-chain"},
        }
    ]
    for tid in sorted(lanes):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": lanes[tid] or f"thread-{tid}"},
            }
        )
    for name, tid in lane_tids.items():
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": name},
            }
        )
    if registry is not None:
        meta.append(
            {
                "name": "metrics_snapshot",
                "ph": "M",
                "pid": _PID,
                "tid": 0,
                "args": registry.snapshot(),
            }
        )
    return meta + events


def write_chrome_trace(path: str, source: "Tracer | Iterable[Span]",
                       registry: MetricsRegistry | None = None) -> int:
    """Write the Chrome trace-event JSON; returns the span count."""
    spans = _spans_of(source)
    payload = {
        "traceEvents": chrome_trace_events(spans, registry),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return sum(1 for s in spans if s.finished)


def write_trace(path: str, fmt: str, source: "Tracer | Iterable[Span]",
                registry: MetricsRegistry | None = None) -> int:
    """Dispatch on ``fmt`` in {"jsonl", "chrome"}."""
    if fmt == "chrome":
        return write_chrome_trace(path, source, registry)
    if fmt == "jsonl":
        return write_jsonl(path, source, registry)
    raise ValueError(f"unknown trace format {fmt!r}")


# -- loading -------------------------------------------------------------------

def _span_from_record(record: dict[str, Any]) -> Span:
    span = Span(
        name=record["name"],
        span_id=record["span_id"],
        parent_id=record.get("parent_id"),
        start_s=record["start_s"],
        end_s=record.get("end_s"),
        category=record.get("category", ""),
        attributes=dict(record.get("attributes", {})),
        thread_id=record.get("thread_id", 0),
        thread_name=record.get("thread_name", ""),
        error=record.get("error"),
    )
    for event in record.get("events", ()):
        span.events.append(
            SpanEvent(event["name"], event["at_s"],
                      dict(event.get("attributes", {})))
        )
    return span


def _span_from_chrome(event: dict[str, Any]) -> Span:
    args = dict(event.get("args", {}))
    span_id = args.pop("span_id", 0)
    parent_id = args.pop("parent_id", None)
    error = args.pop("error", None)
    start_s = event["ts"] / 1e6
    return Span(
        name=event["name"],
        span_id=span_id,
        parent_id=parent_id,
        start_s=start_s,
        end_s=start_s + event.get("dur", 0.0) / 1e6,
        category=event.get("cat", ""),
        attributes=args,
        thread_id=event.get("tid", 0),
        error=error,
    )


class TraceFileError(ValueError):
    """A trace file that cannot be read back: missing, unreadable, not
    JSON where a record should be (the message names the line), or not
    shaped like a trace."""


def _json_at(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFileError(f"{where}: not JSON ({exc.msg})") from None


def load_trace(path: str) -> tuple[list[Span], dict[str, Any] | None]:
    """Read a saved trace in either format; returns (spans, metrics).
    Raises :class:`TraceFileError` for a file that is missing, does not
    decode, or holds records without the fields a span needs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFileError(f"cannot read {path}: {exc}") from None
    try:
        return _parse_trace(text, path)
    except (KeyError, TypeError, AttributeError) as exc:
        raise TraceFileError(
            f"{path}: not a trace ({type(exc).__name__}: {exc})") from None


def _parse_trace(text: str,
                 path: str) -> tuple[list[Span], dict[str, Any] | None]:
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        payload = _json_at(text, path)
        names: dict[int, str] = {}
        metrics: dict[str, Any] | None = None
        spans = []
        for event in payload["traceEvents"]:
            if event.get("ph") == "M":
                if event.get("name") == "thread_name":
                    names[event.get("tid", 0)] = event["args"]["name"]
                elif event.get("name") == "metrics_snapshot":
                    metrics = event.get("args")
                continue
            if event.get("ph") != "X":
                continue
            spans.append(_span_from_chrome(event))
        for span in spans:
            span.thread_name = names.get(span.thread_id, "")
        return spans, metrics
    spans = []
    metrics = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        record = _json_at(line, f"{path}:{lineno}")
        if not isinstance(record, dict):
            raise TraceFileError(f"{path}:{lineno}: not a JSON object")
        if record.get("type") == "metrics":
            metrics = record.get("snapshot")
        elif record.get("type") == "span":
            spans.append(_span_from_record(record))
    return spans, metrics


# -- text report ---------------------------------------------------------------

def _aggregate(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(name, count, total_s, max_s) per span name, sorted by total."""
    totals: dict[str, list[float]] = {}
    for span in spans:
        totals.setdefault(span.name, []).append(span.duration_s)
    rows = [
        (name, len(values), sum(values), max(values))
        for name, values in totals.items()
    ]
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def timeline_coverage(spans: list[Span]) -> float:
    """Fraction of the trace's wall-clock covered by root spans (the
    acceptance check: lanes should account for ~all modeled time).

    Spans in the ``modeled`` category carry *simulated* durations (the
    performance model's seconds, not elapsed host time), so they are
    excluded from the wall-clock extent — only their placement is real.
    """
    finished = [s for s in spans if s.finished and s.category != "modeled"]
    if not finished:
        return 0.0
    lo = min(s.start_s for s in finished)
    hi = max(s.end_s for s in finished)  # type: ignore[arg-type]
    if hi <= lo:
        return 1.0
    roots = [s for s in finished if s.parent_id is None]
    intervals = sorted((s.start_s, s.end_s) for s in roots)
    covered = 0.0
    cursor = lo
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered / (hi - lo)


def text_report(spans: list[Span],
                metrics: dict[str, Any] | None = None,
                max_tree_lines: int = 400) -> str:
    """The hierarchical plain-text view of a trace."""
    finished = sorted(
        (s for s in spans if s.finished),
        key=lambda s: (s.start_s, s.span_id),
    )
    lines: list[str] = []
    if not finished:
        return "(empty trace)"

    total = max(s.end_s for s in finished) - min(s.start_s for s in finished)  # type: ignore[arg-type]
    lines.append(
        f"telemetry: {len(finished)} spans over {total * 1e3:.3f} ms "
        f"({timeline_coverage(finished) * 100:.1f}% covered by root spans)"
    )

    lines.append("")
    lines.append("-- where the time went (by span name) --")
    name_width = max(len(row[0]) for row in _aggregate(finished))
    for name, count, total_s, max_s in _aggregate(finished):
        lines.append(
            f"{name:<{name_width}}  n={count:<5d} total {total_s * 1e3:>10.3f} ms"
            f"  max {max_s * 1e3:>9.3f} ms"
        )

    lines.append("")
    lines.append("-- timeline (hierarchical) --")
    children: dict[int | None, list[Span]] = {}
    for span in finished:
        children.setdefault(span.parent_id, []).append(span)
    known = {span.span_id for span in finished}
    roots = list(children.get(None, []))
    # spans whose parent never finished (or was trimmed) render as roots
    for parent_id, orphans in children.items():
        if parent_id is not None and parent_id not in known:
            roots.extend(orphans)
    roots.sort(key=lambda s: (s.start_s, s.span_id))

    tree: list[str] = []
    truncated = False

    def render(span: Span, depth: int) -> None:
        nonlocal truncated
        if truncated:
            return
        if len(tree) >= max_tree_lines:
            truncated = True
            return
        detail = ""
        interesting = {
            k: v
            for k, v in span.attributes.items()
            if k in ("label", "compiler", "target", "seed", "cache", "device",
                     "kernel", "status", "nbytes", "lane", "op")
        }
        if interesting:
            detail = "  " + " ".join(
                f"{k}={v}" for k, v in sorted(interesting.items())
            )
        error = f"  ERROR {span.error}" if span.error else ""
        tree.append(
            f"{'  ' * depth}{span.name:<{max(4, 32 - 2 * depth)}} "
            f"{span.duration_s * 1e3:>10.3f} ms{detail}{error}"
        )
        for child in children.get(span.span_id, ()):
            render(child, depth + 1)

    for root in roots:
        render(root, 0)
    lines.extend(tree)
    if truncated:
        lines.append(f"... ({len(finished)} spans total; tree truncated at "
                     f"{max_tree_lines} lines)")

    if metrics:
        lines.append("")
        lines.append("-- metrics --")
        for name, value in metrics.get("counters", {}).items():
            lines.append(f"{name} = {value}")
        for name, value in metrics.get("gauges", {}).items():
            lines.append(f"{name} = {value:.6g}")
        for name, summary in metrics.get("histograms", {}).items():
            lines.append(
                f"{name}: n={int(summary['count'])} sum={summary['sum']:.6g} "
                f"p50={summary['p50']:.6g} p95={summary['p95']:.6g}"
            )
    return "\n".join(lines)
