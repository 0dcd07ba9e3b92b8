"""Fault-injection adapters: the seam between a :class:`FaultPlan` and
the compile service.

The compiler models stay *pure* — faults are injected by wrapping the
two boundaries the service already owns:

* :class:`FaultyCompilerAdapter` wraps the service's ``compile_fn``; a
  compile attempt first consults the plan (persistent, then transient,
  then slow), so an injected crash never even reaches the model.
* :class:`FaultyCacheAdapter` wraps an
  :class:`~repro.service.cache.ArtifactCache`; reads and writes raise
  :class:`~repro.faults.plan.FlakyIOError` per the plan.  The service
  degrades a flaky read to a miss and a flaky write to a skipped store,
  so cache I/O faults never surface to callers.

Both adapters are transparent when the plan has no matching rules.
"""

from __future__ import annotations

from typing import Any, Callable

from .plan import FaultPlan

__all__ = ["FaultyCompilerAdapter", "FaultyCacheAdapter"]


class FaultyCompilerAdapter:
    """Wraps a ``compile_fn`` with plan-driven failures and stragglers.

    ``compile(request, attempt)`` returns ``(artifact, penalty_s)``:
    the artifact plus any injected slow-job latency (already slept on
    the adapter's clock, so a simulated clock makes slow faults free in
    tests while a real clock produces genuine stragglers for hedging).
    """

    def __init__(
        self,
        compile_fn: Callable[[Any], Any],
        plan: FaultPlan,
        clock=None,
    ) -> None:
        self._compile_fn = compile_fn
        self.plan = plan
        self._clock = clock

    def compile(self, request: Any, attempt: int = 0) -> tuple[Any, float]:
        fingerprint = request.fingerprint
        fault = self.plan.compile_fault(fingerprint, attempt)
        if fault is not None:
            raise fault
        penalty_s = self.plan.slow_penalty_s(fingerprint, attempt)
        artifact = self._compile_fn(request)
        if penalty_s and self._clock is not None:
            self._clock.sleep(penalty_s)
        return artifact, penalty_s


class FaultyCacheAdapter:
    """An :class:`ArtifactCache` proxy whose ``get``/``peek``/``put``
    flake per the plan; everything else (``stats``, ``clear``,
    ``__len__``, …) delegates to the wrapped cache."""

    def __init__(self, cache: Any, plan: FaultPlan) -> None:
        self._inner = cache
        self.plan = plan

    def get(self, fingerprint: str) -> Any:
        fault = self.plan.cache_fault("read", fingerprint)
        if fault is not None:
            raise fault
        return self._inner.get(fingerprint)

    def peek(self, fingerprint: str) -> Any:
        fault = self.plan.cache_fault("read", fingerprint)
        if fault is not None:
            raise fault
        return self._inner.peek(fingerprint)

    def put(self, fingerprint: str, artifact: Any) -> None:
        fault = self.plan.cache_fault("write", fingerprint)
        if fault is not None:
            raise fault
        self._inner.put(fingerprint, artifact)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._inner

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
