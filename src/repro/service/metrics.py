"""Service-level metrics: request/hit/dedup counters and compile-latency
percentiles, renderable as a section of the runtime profiler's report.

The :class:`repro.runtime.profiler.Profiler` knows nothing about the
service layer; both layers meet at the
:class:`repro.telemetry.Reportable` protocol (see
:meth:`Profiler.attach_service`), which :class:`ServiceMetrics` and
:class:`repro.service.scheduler.CompileService` satisfy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..telemetry.registry import MetricsRegistry, percentile

__all__ = ["ServiceMetrics"]


@dataclass
class ServiceMetrics:
    """Thread-safe counters for one :class:`CompileService`."""

    requests: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    compiles: int = 0
    errors: int = 0
    timeouts: int = 0
    #: resilience counters (docs/FAULTS.md): injected faults seen at the
    #: compiler/cache boundaries, retries spent healing them, breaker
    #: fallbacks.
    faults_injected: int = 0
    retries: int = 0
    degraded: int = 0
    cache_io_errors: int = 0
    #: modeled wall-clock not spent recompiling: on every hit, the recorded
    #: compile time of that fingerprint (or the running mean for artifacts
    #: inherited from a previous process via the disk tier)
    time_saved_s: float = 0.0
    _compile_seconds: list[float] = field(default_factory=list, repr=False)
    _seconds_by_fp: dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def record_request(self) -> None:
        with self._lock:
            self.requests += 1

    def record_cache_hit(self, fingerprint: str) -> None:
        with self._lock:
            self.cache_hits += 1
            self.time_saved_s += self._seconds_by_fp.get(
                fingerprint, self._mean_compile_s()
            )

    def record_dedup_hit(self) -> None:
        with self._lock:
            self.dedup_hits += 1

    def record_compile(self, fingerprint: str, seconds: float,
                       failed: bool = False) -> None:
        with self._lock:
            self.compiles += 1
            if failed:
                self.errors += 1
            self._compile_seconds.append(seconds)
            self._seconds_by_fp[fingerprint] = seconds

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def record_fault(self, cache_io: bool = False) -> None:
        with self._lock:
            self.faults_injected += 1
            if cache_io:
                self.cache_io_errors += 1

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def record_degraded(self) -> None:
        with self._lock:
            self.degraded += 1

    # -- views -----------------------------------------------------------------

    def _mean_compile_s(self) -> float:
        if not self._compile_seconds:
            return 0.0
        return sum(self._compile_seconds) / len(self._compile_seconds)

    @property
    def p50_compile_s(self) -> float:
        with self._lock:
            return percentile(self._compile_seconds, 0.50)

    @property
    def p95_compile_s(self) -> float:
        with self._lock:
            return percentile(self._compile_seconds, 0.95)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.cache_hits + self.dedup_hits + self.compiles
            return (self.cache_hits + self.dedup_hits) / total if total else 0.0

    def snapshot(self) -> dict[str, int | float]:
        with self._lock:
            return {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "dedup_hits": self.dedup_hits,
                "compiles": self.compiles,
                "errors": self.errors,
                "timeouts": self.timeouts,
                "time_saved_s": self.time_saved_s,
                "faults_injected": self.faults_injected,
                "retries": self.retries,
                "degraded": self.degraded,
                "cache_io_errors": self.cache_io_errors,
            }

    def publish(self, registry: MetricsRegistry,
                prefix: str = "service") -> None:
        """Publish counters and the compile-latency distribution into the
        unified telemetry registry (gauges, so re-publishing is
        idempotent rather than double-counting)."""
        with self._lock:
            snap = {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "dedup_hits": self.dedup_hits,
                "compiles": self.compiles,
                "errors": self.errors,
                "timeouts": self.timeouts,
                "time_saved_s": self.time_saved_s,
            }
            # resilience counters publish under the ``faults.`` namespace
            # (docs/FAULTS.md) so dashboards see one fault-injection
            # story regardless of which service produced it
            faults = {
                "faults.injected": self.faults_injected,
                "faults.retries": self.retries,
                "faults.degraded": self.degraded,
                "faults.cache_io_errors": self.cache_io_errors,
            }
            seconds = list(self._compile_seconds)
        for name, value in snap.items():
            registry.gauge(f"{prefix}.{name}").set(float(value))
        for name, value in faults.items():
            registry.gauge(name).set(float(value))
        histogram = registry.histogram(f"{prefix}.compile_seconds")
        already = histogram.count
        if len(seconds) > already:
            histogram.observe_many(seconds[already:])

    def report_lines(self) -> list[str]:
        """The compile-service section of a profiler report."""
        snap = self.snapshot()
        lines = [
            "-- compile service --",
            (
                f"requests {snap['requests']}: "
                f"{snap['cache_hits']} cache hits, "
                f"{snap['dedup_hits']} dedup hits, "
                f"{snap['compiles']} compiles "
                f"({snap['errors']} errors, {snap['timeouts']} timeouts)"
            ),
            (
                f"compile latency p50 {self.p50_compile_s * 1e3:.3f} ms, "
                f"p95 {self.p95_compile_s * 1e3:.3f} ms; "
                f"~{snap['time_saved_s'] * 1e3:.3f} ms saved by caching"
            ),
        ]
        if any(snap[k] for k in ("faults_injected", "retries", "degraded")):
            lines.append(
                f"resilience: {snap['faults_injected']} faults injected "
                f"({snap['cache_io_errors']} cache I/O), "
                f"{snap['retries']} retries, "
                f"{snap['degraded']} degraded fallbacks"
            )
        return lines
