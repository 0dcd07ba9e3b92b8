"""The compile service: batch scheduling over the cached compiler models.

``CompileService`` is the front door of the service layer.  One instance
owns an :class:`ArtifactCache`, a
:class:`~repro.telemetry.MetricsRegistry` its counters live in (read
through :attr:`CompileService.metrics`), and (when ``jobs > 1``) a
``concurrent.futures`` thread pool:

* :meth:`compile` — synchronous single compile, cache-checked, over
  the uncached leaf :func:`repro.core.method.compile_stage`.
* :meth:`submit` — asynchronous compile returning a ``Future``;
  identical in-flight requests (same fingerprint) are deduplicated onto
  one future.
* :meth:`sweep` — fault-tolerant batch for parameter sweeps: a failed
  point yields a structured :class:`JobError` in its slot and the rest
  of the sweep completes.
* :meth:`lookup` — the daemon's hit read: a stored fingerprint's pickle
  bytes as stored, with no request, no pool hop and no copy.

Resilience (docs/FAULTS.md): the service survives the compiler
fragility the paper documents — injected by the
:class:`~repro.faults.FaultPlan` it reads before each compile attempt
and each cache access — with retry, off by default and deterministic:
transient failures are re-attempted up to ``retries`` times with
exponential backoff and counter-hashed jitter
(:func:`~repro.service.resilience.backoff_s`), slept on an injectable
:class:`~repro.service.resilience.Clock` (tests use ``SimClock``;
``time.sleep`` never runs under test).  A flaky cache read is a
counted miss and a flaky write a counted skipped store.  A point that
still fails is a ``JobError`` in its slot, never a substitute compile.

A killed sweep resumes by running it again on the same cache
directory: finished points (refusals included) come back from the
content-addressed store, and the rest compile.

Determinism contract: the compiler models are pure functions of the
fingerprinted inputs, requests are materialized by the *caller* in a
fixed order (IR loop ids are allocated before submission), results are
returned in request order, and every fault/retry decision is a
counter-based hash of (seed, fingerprint, attempt) — so a ``jobs=4``
sweep is byte-identical to a serial one, a warm-cache sweep to a cold
one, and a faulted sweep to a re-run under the same plan.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable

from ..compilers.flags import FlagSet
from ..devices.specs import DeviceSpec
from ..faults.plan import FaultPlan, is_injected_fault, is_transient
from ..ir.stmt import Module
from ..telemetry.registry import CounterView, MetricsRegistry
from ..telemetry.spans import get_tracer
from .cache import MISS, ArtifactCache, CachedRefusal, SingleFlight
from .fingerprint import CompileRequest
from .resilience import Clock, SystemClock, backoff_s


class JobError(Exception):
    """A structured per-point failure: a sweep slot, never a crash."""

    def __init__(self, label: str, fingerprint: str, kind: str,
                 message: str, seconds: float = 0.0) -> None:
        super().__init__(message)
        self.label = label
        self.fingerprint = fingerprint
        self.kind = kind  # "compile-error" | "timeout" | "fault" | "error"
        self.message = message
        self.seconds = seconds

    def __str__(self) -> str:
        tag = f" [{self.label}]" if self.label else ""
        return f"{self.kind}{tag}: {self.message}"

    def __reduce__(self):
        # Exception.__reduce__ would replay only ``args`` (the message),
        # which breaks the 5-argument constructor; spell the constructor
        # arguments out so a JobError survives the disk cache tier.
        return (
            JobError,
            (self.label, self.fingerprint, self.kind, self.message,
             self.seconds),
        )


def _default_compile_fn(request: CompileRequest) -> Any:
    # imported lazily: core.method sits above the compilers but below the
    # sweep drivers, and importing it at module scope would cycle through
    # repro.core.__init__ -> search/autotune -> repro.service
    from ..core.method import compile_stage

    return compile_stage(request.module, request.compiler, request.target,
                         request.flags)


class ServiceCounters(CounterView):
    """A compile service's ``service.*`` counters and the resilience
    counters of docs/FAULTS.md (``faults.*``), plus ``time_saved_s``:
    the compile time cache hits saved (a gauge)."""

    FIELDS = {
        "requests": "service.requests",
        "cache_hits": "service.cache_hits",
        "dedup_hits": "service.dedup_hits",
        "compiles": "service.compiles",
        "errors": "service.errors",
        "faults_injected": "faults.injected",
        "retries": "faults.retries",
        "cache_io_errors": "faults.cache_io_errors",
    }

    @property
    def time_saved_s(self) -> float:
        return self.registry.gauge("service.time_saved_s").value

    def snapshot(self) -> dict[str, int | float]:
        return {**super().snapshot(), "time_saved_s": self.time_saved_s}

    def report_lines(self) -> list[str]:
        """The compile-service section of a profiler report."""
        snap = self.snapshot()
        latency = self.registry.histogram("service.compile_seconds")
        lines = [
            "-- compile service --",
            (
                f"requests {snap['requests']}: "
                f"{snap['cache_hits']} cache hits, "
                f"{snap['dedup_hits']} dedup hits, "
                f"{snap['compiles']} compiles ({snap['errors']} errors)"
            ),
            (
                f"compile latency p50 {latency.quantile(0.5) * 1e3:.3f} ms, "
                f"p95 {latency.quantile(0.95) * 1e3:.3f} ms; "
                f"~{snap['time_saved_s'] * 1e3:.3f} ms saved by caching"
            ),
        ]
        if snap["faults_injected"] or snap["retries"]:
            lines.append(
                f"resilience: {snap['faults_injected']} faults injected "
                f"({snap['cache_io_errors']} cache I/O), "
                f"{snap['retries']} retries"
            )
        return lines


class CompileService:
    """Content-addressed, deduplicating, pool-backed, fault-resilient
    compilation.  It counts into *registry* (by default a private one,
    which a cache it builds itself shares).  *retries* counts
    *re*-attempts of a transient failure: a job runs at most
    ``retries + 1`` times."""

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        jobs: int = 1,
        registry: MetricsRegistry | None = None,
        compile_fn: Callable[[CompileRequest], Any] | None = None,
        retries: int = 0,
        fault_plan: FaultPlan | None = None,
        clock: Clock | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = (cache if cache is not None
                      else ArtifactCache(registry=self.registry))
        self.metrics = ServiceCounters(self.registry)
        self._count = {field: self.registry.counter(name)
                       for field, name in ServiceCounters.FIELDS.items()}
        self._time_saved = self.registry.gauge("service.time_saved_s")
        self._compile_seconds = self.registry.histogram(
            "service.compile_seconds")
        #: each compiled fingerprint's compile time: what a hit saves
        self._seconds_by_fp: dict[str, float] = {}
        self.jobs = jobs
        self.retries = retries
        self.fault_plan = fault_plan
        self.clock = clock if clock is not None else SystemClock()
        self._compile_fn = compile_fn or _default_compile_fn
        self._pool: ThreadPoolExecutor | None = None
        self._flights = SingleFlight()

    # -- single compiles -------------------------------------------------------

    def compile(
        self,
        module: Module,
        compiler: str,
        target: str,
        flags: FlagSet | None = None,
        device: DeviceSpec | None = None,
        label: str = "",
    ) -> Any:
        """Cache-checked synchronous compile (raises on compiler error,
        exactly like :func:`repro.core.method.compile_stage`)."""
        return self.compile_request(
            CompileRequest(module, compiler, target, flags, device, label)
        )

    def compile_request(self, request: CompileRequest) -> Any:
        fingerprint = request.fingerprint
        self._count["requests"].inc()
        tracer = get_tracer()
        with tracer.span(
            "service.compile", category="service",
            label=request.label or request.module.name,
            compiler=request.compiler, target=request.target,
            fingerprint=fingerprint[:12],
        ) as span:
            cached = self._cache_get(fingerprint)
            if cached is not MISS:
                self._record_hit(fingerprint)
                span.set(cache="hit")
                if isinstance(cached, CachedRefusal):
                    raise cached.error
                return cached
            span.set(cache="miss")
            attempt = 0
            while True:
                start = time.perf_counter()
                try:
                    artifact = self._invoke_compile(request, attempt)
                except Exception as exc:
                    seconds = time.perf_counter() - start
                    injected = is_injected_fault(exc)
                    if injected:
                        self._record_fault()
                    if is_transient(exc) and attempt < self.retries:
                        backoff = backoff_s(fingerprint, attempt)
                        self._count["retries"].inc()
                        if tracer.enabled:
                            tracer.record_span(
                                "service.retry", backoff, category="service",
                                label=request.label or request.module.name,
                                attempt=attempt + 1,
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        self.clock.sleep(backoff)
                        attempt += 1
                        continue
                    if not injected:
                        # deterministic compiler behaviour: cacheable.
                        # injected faults are plan state, never cached.
                        self._cache_put(fingerprint, CachedRefusal(exc))
                    self._record_compile(fingerprint, seconds, failed=True)
                    span.set(attempts=attempt + 1)
                    raise
                seconds = time.perf_counter() - start
                self._cache_put(fingerprint, artifact)
                self._record_compile(fingerprint, seconds)
                if attempt:
                    span.set(attempts=attempt + 1)
                return artifact

    def _invoke_compile(self, request: CompileRequest, attempt: int) -> Any:
        """One compile attempt; the plan's injected fault, if any, is
        raised before the compiler model runs."""
        if self.fault_plan is not None:
            fault = self.fault_plan.compile_fault(request.fingerprint, attempt)
            if fault is not None:
                raise fault
        return self._compile_fn(request)

    def lookup(self, fingerprint: str, label: str = "") -> Any:
        """The hit read of the ``repro serve`` daemon, which answers a
        stored fingerprint without building the request.

        Returns the stored pickle bytes themselves — the object ``put``
        produced, never re-pickled — or, for a cached compiler refusal
        (told apart by the entry's flag), the ``compile-error``
        :class:`JobError` slot :meth:`sweep` produces (labelled
        *label*).  A hit counts one request and one cache hit.  Returns :data:`MISS` otherwise and
        counts nothing: the caller falls back to :meth:`sweep`, which
        counts the request and the miss.
        """
        with get_tracer().span(
            "service.lookup", category="service",
            fingerprint=fingerprint[:12],
        ) as span:
            stored = self._cache_get(fingerprint, peek=True)
            span.set(cache="miss" if stored is MISS else "hit")
            if stored is MISS:
                return MISS
            self._count["requests"].inc()
            self._record_hit(fingerprint)
            if stored.refused:
                return JobError(label, fingerprint, "compile-error",
                                str(pickle.loads(stored.blob).error))
            return stored.blob

    # -- fault-injected cache access -------------------------------------------

    def _cache_get(self, fingerprint: str, peek: bool = False) -> Any:
        """A read the plan flakes is a counted miss.  With *peek*, the
        stored entry (see :meth:`ArtifactCache.peek`)."""
        plan = self.fault_plan
        if plan is not None and plan.cache_fault("read", fingerprint):
            self._record_fault(cache_io=True)
            return MISS
        if peek:
            return self.cache.peek(fingerprint)
        return self.cache.get(fingerprint)

    def _cache_put(self, fingerprint: str, artifact: Any) -> None:
        """A write the plan flakes is a counted skipped store (the next
        identical request simply recompiles)."""
        plan = self.fault_plan
        if plan is not None and plan.cache_fault("write", fingerprint):
            self._record_fault(cache_io=True)
            return
        self.cache.put(fingerprint, artifact)

    # -- counting --------------------------------------------------------------

    def _record_hit(self, fingerprint: str) -> None:
        """Count a cache hit and the compile time it saved: the recorded
        compile time of that fingerprint, or the mean one for artifacts
        inherited from a previous process via the disk tier."""
        self._count["cache_hits"].inc()
        saved = self._seconds_by_fp.get(fingerprint)
        self._time_saved.add(saved if saved is not None
                             else self._compile_seconds.mean)

    def _record_compile(self, fingerprint: str, seconds: float,
                        failed: bool = False) -> None:
        self._count["compiles"].inc()
        if failed:
            self._count["errors"].inc()
        self._compile_seconds.observe(seconds)
        self._seconds_by_fp[fingerprint] = seconds

    def _record_fault(self, cache_io: bool = False) -> None:
        self._count["faults_injected"].inc()
        if cache_io:
            self._count["cache_io_errors"].inc()

    # -- batch API -------------------------------------------------------------

    def submit(self, request: CompileRequest) -> Future:
        """Schedule one request; identical in-flight requests share one
        future (and one compile)."""
        tracer = get_tracer()
        fingerprint = request.fingerprint
        future, leader = self._flights.join(fingerprint)
        if not leader:
            self._count["dedup_hits"].inc()
            if tracer.enabled:
                tracer.record_span(
                    "service.dedup", 0.0, category="service",
                    label=request.label or request.module.name,
                    fingerprint=fingerprint[:12],
                )
            return future
        # the job span must parent under the *submitting* thread's span
        # (e.g. service.sweep) even when it runs on a pool thread, where
        # contextvars do not propagate — capture the parent here
        parent = tracer.capture()
        queued_at = tracer.now_s() if tracer.enabled else 0.0
        if self.jobs == 1:
            self._run_job(request, future, parent, queued_at)
        else:
            self._ensure_pool().submit(
                self._run_job, request, future, parent, queued_at
            )
        return future

    def sweep(self, requests: Iterable[CompileRequest]) -> list[Any]:
        """Fault-tolerant batch: each slot is an artifact or a
        :class:`JobError`; a bad point never kills the sweep."""
        materialized = list(requests)
        with get_tracer().span(
            "service.sweep", category="service",
            points=len(materialized), jobs=self.jobs,
        ):
            pending = [self.submit(request) for request in materialized]
            results: list[Any] = []
            for request, future in zip(materialized, pending):
                try:
                    result = future.result()
                except JobError as err:
                    result = err
                except Exception as exc:  # compiler error captured in-slot
                    result = JobError(
                        request.label or request.module.name,
                        request.fingerprint,
                        "fault" if is_injected_fault(exc) else "compile-error",
                        str(exc),
                    )
                results.append(result)
            return results

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def report_lines(self) -> list[str]:
        """Service metrics + cache-tier counters (profiler section)."""
        stats = self.cache.stats
        return self.metrics.report_lines() + [
            (
                f"cache: {stats.memory_hits} memory hits, "
                f"{stats.disk_hits} disk hits, {stats.misses} misses, "
                f"{stats.evictions} evictions "
                f"({len(self.cache)} resident entries)"
            ),
        ]

    def inflight_count(self) -> int:
        """Requests currently being compiled (the server's status view)."""
        return len(self._flights)

    def stats_snapshot(self) -> dict[str, Any]:
        """One structured snapshot of everything the service counts —
        the payload of the ``repro serve`` daemon's ``stats`` endpoint
        (and of anything else that wants machine-readable state without
        scraping :meth:`report_lines`)."""
        return {
            "service": self.metrics.snapshot(),
            "cache": self.cache.stats.snapshot(),
            "jobs": self.jobs,
            "inflight": self.inflight_count(),
        }

    # -- internals -------------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-compile"
            )
        return self._pool

    def _run_job(self, request: CompileRequest, future: Future,
                 parent=None, queued_at: float = 0.0) -> None:
        tracer = get_tracer()
        with tracer.span(
            "service.job", category="service", parent=parent,
            label=request.label or request.module.name,
        ) as span:
            if tracer.enabled:
                # queue wait: submit() stamped the enqueue time
                span.set(queued_s=max(tracer.now_s() - queued_at, 0.0))
            try:
                result = self.compile_request(request)
            except BaseException as exc:
                span.set(status="error")
                self._flights.settle(request.fingerprint, future, error=exc)
                if not isinstance(exc, Exception):
                    raise  # an interrupt still stops the caller
            else:
                span.set(status="done")
                self._flights.settle(request.fingerprint, future, result)
