"""Per-layer cost ledger of the benchmark suite.

A *layer* is a package under ``repro`` (``frontend``, ``ir``, ...), plus
``bench``: time inside the benchmark's own envelope spans that no layer
span covers.  The ledger turns one process's spans into per-layer *self
time*: a span's duration minus the union of its children's intervals,
with each child clipped to its parent's interval.

The program already opens spans at most layer boundaries.  For layers
that have none, :func:`install` wraps public callables in spans named
``<layer>.<qualname>``, from outside: a function is rebound in every
loaded ``repro.*`` module that holds it, and a method is patched on its
class.  Nothing under ``src/`` is edited.

Run as a script, this module is ``python -m repro`` with the wrappers
installed; the daemon workloads start their traced daemon that way::

    PYTHONPATH=src python3 benchmarks/suite/ledger.py serve --port 0 --trace F
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from typing import Any, Callable, Iterable

#: the layers, in the order the report prints them
LAYERS = (
    "frontend", "ir", "analysis", "passes", "compilers", "ptx", "service",
    "server", "runtime", "perf", "core", "difftest", "bench",
)

#: callables wrapped in benchmark-owned spans: (layer, module, qualname)
WRAPPED = (
    ("ir", "repro.ir.printer", "print_module"),
    ("ir", "repro.ir.printer", "print_kernel"),
    ("analysis", "repro.analysis.dependence", "analyze_loop"),
    ("analysis", "repro.analysis.patterns", "count_ops"),
    # the between-pass verifier runs inside Pipeline.run, so it is
    # charged to passes, not to ir
    ("passes", "repro.passes.pipeline", "Pipeline.run"),
    ("service", "repro.service.fingerprint", "fingerprint_request"),
    ("service", "repro.service.cache", "ArtifactCache.get"),
    ("service", "repro.service.cache", "ArtifactCache.put"),
    ("service", "repro.service.cache", "ShardedArtifactCache.get"),
    ("service", "repro.service.cache", "ShardedArtifactCache.put"),
    ("server", "repro.server.protocol", "point_to_wire"),
    ("server", "repro.server.protocol", "point_from_wire"),
    ("server", "repro.server.protocol", "pack_artifact"),
    ("server", "repro.server.protocol", "unpack_artifact"),
    ("server", "repro.server.protocol", "encode_frame"),
    ("server", "repro.server.protocol", "decode_frame"),
    ("server", "repro.server.batcher", "BatchTicket.wait"),
    ("runtime", "repro.runtime.launcher", "Accelerator.launch"),
    ("runtime", "repro.runtime.executor", "execute_kernel"),
    ("runtime", "repro.runtime.parallel", "sweep_digest"),
    ("perf", "repro.perf.model", "estimate_time"),
    # the daemon's envelope: one span per frame it handles
    ("bench", "repro.server.daemon", "ReproServer.handle_frame"),
)

#: prefixes of existing span names that are not package names
PREFIX_LAYER = {
    "compile": "compilers",
    "exec": "runtime",
    "execute": "runtime",
    "halo": "perf",
    "search": "core",
    "matrix": "core",
    "method": "core",
    "autotune": "core",
}

#: span categories that name their layer (pass spans are named after
#: the pass, e.g. ``caps-tile``)
CATEGORY_LAYER = {"pass": "passes", "codegen": "ptx"}

#: spans whose self time is blocking on another process or thread, not
#: work: kept out of every layer.  ``client.request`` waits on the daemon
#: (whose own spans account for that time); a handler waits in
#: ``BatchTicket.wait`` while the batcher thread serves the batch.
WAIT_SPANS = {
    "client.request": "client.wait",
    "server.BatchTicket.wait": "server.wait",
}

#: spans that restate time other spans already measure: ``exec.task`` is
#: recorded after the task ran, at the clock position where it *ended*
DROPPED_SPANS = frozenset({"exec.task"})

_installed: list[tuple[Any, str, Any]] = []


def bucket_of(span) -> str | None:
    """The layer (or wait bucket) a span's self time is charged to;
    ``None`` for the spans the ledger drops."""
    if span.category == "modeled" or span.name in DROPPED_SPANS:
        return None
    if span.name in WAIT_SPANS:
        return WAIT_SPANS[span.name]
    if span.category in CATEGORY_LAYER:
        return CATEGORY_LAYER[span.category]
    prefix = span.name.split(".", 1)[0]
    if prefix in LAYERS:
        return prefix
    return PREFIX_LAYER.get(prefix, "bench")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by *intervals*, overlaps counted once."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[tuple[Any, str, float]]:
    """``(span, bucket, self_seconds)`` for every span the ledger keeps."""
    kept = [(s, bucket_of(s)) for s in spans if s.finished]
    kept = [(s, b) for s, b in kept if b is not None]
    children: dict[int, list] = defaultdict(list)
    for span, _bucket in kept:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    out = []
    for span, bucket in kept:
        covered = union_length(
            (max(c.start_s, span.start_s), min(c.end_s, span.end_s))
            for c in children.get(span.span_id, ())
        )
        out.append((span, bucket, max(span.duration_s - covered, 0.0)))
    return out


def in_window(spans, start_s: float, end_s: float) -> list:
    """The spans that start and end inside ``[start_s, end_s]``."""
    return [s for s in spans
            if s.finished and s.start_s >= start_s and s.end_s <= end_s]


def layer_metrics(processes: Iterable[list], ops: int) -> dict[str, float]:
    """Per-layer self time and call counts per op, summed over the span
    lists of several processes (span ids are per process).

    ``trace.unattributed_ratio`` is the share of the benchmark's root
    envelopes (``bench.*`` roots: one per op in the load process, one
    per frame in the daemon) that no layer span covers.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    envelope_s = 0.0
    for spans in processes:
        for span, bucket, seconds in self_times(spans):
            self_s[bucket] += seconds
            calls[bucket] += 1
            if span.parent_id is None and span.name.startswith("bench."):
                envelope_s += span.duration_s
    ops = max(ops, 1)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = self_s[layer] * 1e3 / ops
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    metrics["server.wait_ms_per_op"] = self_s["server.wait"] * 1e3 / ops
    metrics["trace.unattributed_ratio"] = (
        self_s["bench"] / envelope_s if envelope_s else 0.0
    )
    return metrics


# -- wrappers ------------------------------------------------------------------

def _spanned(fn: Callable, name: str) -> Callable:
    from repro.telemetry.spans import get_tracer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name, category="bench-wrapped"):
            return fn(*args, **kwargs)

    return wrapper


def install() -> None:
    """Wrap every :data:`WRAPPED` callable in a span (idempotent)."""
    if _installed:
        return
    for layer, module_name, qualname in WRAPPED:
        module = importlib.import_module(module_name)
        name = f"{layer}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _spanned(original, name))
            _installed.append((cls, attr, original))
            continue
        original = getattr(module, qualname)
        wrapper = _spanned(original, name)
        for holder in list(sys.modules.values()):
            if not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    _installed.append((holder, attr, original))


def uninstall() -> None:
    """Restore every wrapped callable."""
    while _installed:
        holder, attr, original = _installed.pop()
        setattr(holder, attr, original)


if __name__ == "__main__":
    install()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
