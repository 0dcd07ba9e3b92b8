"""repro.telemetry — end-to-end observability for the whole tool-chain.

The paper's explanation apparatus is *observation*: nvprof/PGI_ACC_TIME
timelines expose the BFS fallback-to-host discovery (V-C1) and the
Table VII transfer counts.  This package is that apparatus for the
simulated tool-chain, process-wide:

* :mod:`.spans` — hierarchical tracing spans (context-manager /
  decorator API, contextvars parent propagation that survives the sweep
  scheduler's worker threads, near-zero-cost no-op path when disabled);
* :mod:`.registry` — the unified counter/gauge/histogram metrics
  registry, the only store of the compile service's, cache's and
  daemon's counters (their ``snapshot()`` methods are
  :class:`CounterView` reads of it), plus the shared
  :func:`percentile`;
* :mod:`.export` — JSON-lines and Chrome trace-event sinks (load the
  latter in Perfetto / ``chrome://tracing``; one lane per scheduler
  worker) and the hierarchical text report behind ``repro telemetry``.

Tracing is **off** by default: the process-wide tracer starts disabled
and every instrumentation site costs one ``enabled`` check.  The CLI's
``--trace FILE`` flag turns it on for a run; see docs/TELEMETRY.md.
"""

from .export import (
    TraceFileError,
    load_trace,
    span_record,
    text_report,
    timeline_coverage,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from .registry import (
    Counter,
    CounterView,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    reset_registry,
)
from .spans import (
    NOOP_SPAN,
    Span,
    SpanEvent,
    Tracer,
    configure_tracer,
    get_tracer,
    reset_tracer,
    traced,
)

__all__ = [
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "SpanEvent",
    "TraceFileError",
    "Tracer",
    "configure_tracer",
    "get_registry",
    "get_tracer",
    "load_trace",
    "percentile",
    "reset_registry",
    "reset_tracer",
    "span_record",
    "text_report",
    "timeline_coverage",
    "traced",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
