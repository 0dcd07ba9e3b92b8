"""Executor memo-cache contracts: single-flight compile race and LRU
eviction (docs/EXECUTOR.md).

The race and eviction tests are behavioral: they count actual codegen
invocations through a monkeypatched ``_make_codegen`` rather than
peeking at ``_fn_cache`` keys, so a cache re-implementation keeps them
green as long as the contract holds.
"""

import threading
import time

import pytest

from repro.frontend import parse_kernel
from repro.runtime import executor
from repro.runtime.executor import clear_kernel_cache, compile_kernel_fn
from repro.telemetry import get_registry, reset_registry
from repro.telemetry.spans import reset_tracer


def _kernel(scale: float = 2.0):
    """A vectorizable one-loop kernel; *scale* varies the fingerprint."""
    return parse_kernel(
        "void f(float *a, const float *b, int n) { int i; "
        f"for (i = 0; i < n; i++) a[i] = b[i] * {scale}f + 1.0f; }}"
    )


@pytest.fixture(autouse=True)
def _clean_state():
    clear_kernel_cache()
    reset_registry()
    reset_tracer()
    yield
    clear_kernel_cache()
    reset_registry()
    reset_tracer()


def _counting_codegen(monkeypatch, delay: float = 0.0):
    """Route ``_make_codegen`` through a call counter (optionally slow,
    to widen race windows)."""
    calls: list[tuple] = []
    real = executor._make_codegen

    def counting(kernel, semantics, backend):
        if delay:
            time.sleep(delay)
        calls.append((kernel.name, backend))
        return real(kernel, semantics, backend)

    monkeypatch.setattr(executor, "_make_codegen", counting)
    return calls


class TestCompileRace:
    def test_sixteen_racing_threads_compile_once(self, monkeypatch):
        """16 threads on a cold key: exactly one compile, counters exact
        (1 vectorized bump, 15 cache hits) — the fallback histogram the
        tentpole reports depends on these not being inflated."""
        calls = _counting_codegen(monkeypatch, delay=0.02)
        kernel = _kernel()
        n = 16
        barrier = threading.Barrier(n)
        results: list = [None] * n
        errors: list = []

        def racer(i: int) -> None:
            try:
                barrier.wait()
                results[i] = compile_kernel_fn(kernel, None, "vector")
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=racer, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert len(calls) == 1, f"duplicate compiles: {calls}"
        first = results[0]
        assert first is not None
        assert all(r is first for r in results)
        counters = get_registry().snapshot()["counters"]
        assert counters["executor.cache_hit"] == n - 1
        assert counters["executor.vectorized"] == 1
        assert counters.get("executor.fallback", 0) == 0

    def test_leader_failure_propagates_then_allows_retry(self, monkeypatch):
        kernel = _kernel()

        boom = RuntimeError("codegen exploded")
        real = executor._make_codegen
        attempts = []

        def failing_once(k, semantics, backend):
            attempts.append(backend)
            if len(attempts) == 1:
                raise boom
            return real(k, semantics, backend)

        monkeypatch.setattr(executor, "_make_codegen", failing_once)
        with pytest.raises(RuntimeError, match="codegen exploded"):
            compile_kernel_fn(kernel, None, "vector")
        # the failed latch must not wedge the key: the next call compiles
        fn = compile_kernel_fn(kernel, None, "vector")
        assert callable(fn)
        assert len(attempts) == 2


class TestLRUEviction:
    def test_hot_key_survives_cap_overflow(self, monkeypatch):
        """A repeatedly-hit kernel must not be evicted by one-shot
        kernels filling the cache (FIFO would evict it first)."""
        monkeypatch.setattr(executor, "_CACHE_CAP", 4)
        hot = _kernel(2.0)
        compile_kernel_fn(hot, None, "vector")
        fillers = [_kernel(3.0 + i) for i in range(3)]
        for f in fillers:
            compile_kernel_fn(f, None, "vector")
        compile_kernel_fn(hot, None, "vector")  # hit: moves to LRU back
        compile_kernel_fn(_kernel(99.0), None, "vector")  # evicts oldest

        calls = _counting_codegen(monkeypatch)
        compile_kernel_fn(hot, None, "vector")
        assert calls == [], "hot kernel was evicted despite recent use"
        # the least-recently-used filler (first one) was the victim
        compile_kernel_fn(fillers[0], None, "vector")
        assert len(calls) == 1

    def test_cap_bounds_cache_size(self, monkeypatch):
        monkeypatch.setattr(executor, "_CACHE_CAP", 3)
        for i in range(6):
            compile_kernel_fn(_kernel(2.0 + i), None, "scalar")
        assert len(executor._fn_cache) <= 3
