"""Unified metrics registry: named counters, gauges, and histograms.

One :class:`MetricsRegistry` is the only place a counter lives.  Each
subsystem (the compile service, its artifact cache, the daemon, its
batcher and admission gate) is handed a registry and increments its
instruments when an event happens; every consumer — ``snapshot()``
views such as :class:`CounterView`, the text report, the JSON-lines
export, the CI artifact — reads the same instruments, so there is no
copy step to forget or to drift.

:func:`percentile` lives here as the single shared implementation.

The :class:`Reportable` protocol is the explicit, typed version of the
old ``hasattr(obj, "report_lines")`` contract between the profiler and
the service layer.
"""

from __future__ import annotations

import threading
from typing import Iterable, Protocol, runtime_checkable

__all__ = [
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reportable",
    "get_registry",
    "percentile",
    "reset_registry",
]


@runtime_checkable
class Reportable(Protocol):
    """Anything that can render itself as report lines — the contract
    :meth:`repro.runtime.profiler.Profiler.attach_service` requires, and
    which :class:`repro.service.scheduler.CompileService`, its
    ``metrics`` view, and :class:`MetricsRegistry` all satisfy."""

    def report_lines(self) -> list[str]:
        ...


def percentile(values: list[float], frac: float) -> float:
    """Linear-interpolated percentile of *values* (``frac`` in [0, 1])."""
    if not values:
        return 0.0
    if not 0.0 <= frac <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {frac}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = frac * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    weight = pos - lo
    return ordered[lo] * (1.0 - weight) + ordered[hi] * weight


class Counter:
    """A monotonically increasing named count (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A named value that can move both ways (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A named sample distribution with percentile views (thread-safe)."""

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        with self._lock:
            self._values.extend(float(v) for v in values)

    @property
    def mean(self) -> float:
        with self._lock:
            values = self._values
            return sum(values) / len(values) if values else 0.0

    def quantile(self, frac: float) -> float:
        with self._lock:
            return percentile(self._values, frac)

    def summary(self) -> dict[str, float]:
        with self._lock:
            values = list(self._values)
        return {
            "count": float(len(values)),
            "sum": sum(values),
            "min": min(values) if values else 0.0,
            "max": max(values) if values else 0.0,
            "p50": percentile(values, 0.50),
            "p95": percentile(values, 0.95),
        }


class MetricsRegistry:
    """Named metric instruments, created on first use, snapshot-stable.

    Instrument names are dotted (``service.requests``,
    ``runtime.h2d.seconds``); :meth:`snapshot` returns them sorted so two
    registries fed the same increments — in any thread interleaving —
    serialize identically.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) ----------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_unique(name, self._counters)
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_unique(name, self._gauges)
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_unique(name, self._histograms)
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    def counters(self, prefix: str,
                 names: Iterable[str]) -> dict[str, Counter]:
        """``{name: counter("<prefix>.<name>")}``: a component's handles."""
        return {name: self.counter(f"{prefix}.{name}") for name in names}

    def _check_unique(self, name: str, own: dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric name {name!r} already registered as a different "
                    "instrument kind"
                )

    # -- views -----------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Deterministic (name-sorted) view of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: counters[n].value for n in sorted(counters)},
            "gauges": {n: gauges[n].value for n in sorted(gauges)},
            "histograms": {
                n: histograms[n].summary() for n in sorted(histograms)
            },
        }

    def report_lines(self) -> list[str]:
        """The metrics section of a telemetry text report."""
        snap = self.snapshot()
        lines = ["-- metrics --"]
        for name, value in snap["counters"].items():
            lines.append(f"{name} = {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name} = {value:.6g}")
        for name, summary in snap["histograms"].items():
            lines.append(
                f"{name}: n={int(summary['count'])} sum={summary['sum']:.6g} "
                f"p50={summary['p50']:.6g} p95={summary['p95']:.6g} "
                f"max={summary['max']:.6g}"
            )
        return lines

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class CounterView:
    """A read-only view of some of a registry's counters: ``view.misses``
    reads the counter ``FIELDS["misses"]``; :meth:`snapshot` reads all."""

    #: field -> registry counter name (set by each subclass)
    FIELDS: dict[str, str] = {}

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def __getattr__(self, field: str) -> int:
        name = type(self).FIELDS.get(field)
        if name is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {field!r}")
        return self.registry.counter(name).value

    def snapshot(self) -> dict[str, int | float]:
        return {field: self.registry.counter(name).value
                for field, name in self.FIELDS.items()}


# -- process-wide registry -----------------------------------------------------

_global_registry = MetricsRegistry()
_global_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry: the executor's counters, and those of
    every service, cache and daemon the CLI builds."""
    return _global_registry


def reset_registry() -> MetricsRegistry:
    """Fresh process-wide registry (tests, CLI run boundaries)."""
    global _global_registry
    with _global_lock:
        _global_registry = MetricsRegistry()
        return _global_registry
