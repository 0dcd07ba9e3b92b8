"""Executor memo-cache contracts: single-flight compile race, LRU
eviction, and the persistent plan tier (docs/EXECUTOR.md).

The race and eviction tests are behavioral: they count actual codegen
invocations through a monkeypatched ``_make_codegen`` rather than
peeking at ``_fn_cache`` keys, so a cache re-implementation keeps them
green as long as the contract holds.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.frontend import parse_kernel
from repro.runtime import executor
from repro.runtime.executor import (
    PLAN_SCHEMA,
    clear_kernel_cache,
    compile_kernel_fn,
    configure_plan_cache,
    execute_kernel,
    plan_cache_dir,
)
from repro.telemetry import get_registry, reset_registry
from repro.telemetry.spans import configure_tracer, reset_tracer


def _kernel(scale: float = 2.0):
    """A vectorizable one-loop kernel; *scale* varies the fingerprint."""
    return parse_kernel(
        "void f(float *a, const float *b, int n) { int i; "
        f"for (i = 0; i < n; i++) a[i] = b[i] * {scale}f + 1.0f; }}"
    )


@pytest.fixture(autouse=True)
def _clean_state():
    clear_kernel_cache()
    configure_plan_cache(None)
    reset_registry()
    reset_tracer()
    yield
    clear_kernel_cache()
    configure_plan_cache(None)
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
        fn, _ = compile_kernel_fn(kernel, None, "vector")
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


class TestPersistentPlans:
    def test_store_then_warm_load_skips_codegen(self, tmp_path, monkeypatch):
        configure_plan_cache(tmp_path / "plans")
        kernel = _kernel()
        compile_kernel_fn(kernel, None, "vector")
        counters = get_registry().snapshot()["counters"]
        assert counters["executor.plan_disk_store"] == 1
        assert len(list(plan_cache_dir().glob("*.json"))) == 1

        # warm process: memory gone, disk tier intact
        clear_kernel_cache(memory_only=True)
        reset_registry()
        tracer = configure_tracer(enabled=True)
        calls = _counting_codegen(monkeypatch)
        fn, source = compile_kernel_fn(kernel, None, "vector")
        assert calls == [], "warm load ran codegen"
        assert tracer.spans_named("execute.vectorize") == []
        counters = get_registry().snapshot()["counters"]
        assert counters["executor.plan_disk_hit"] == 1
        assert counters.get("executor.vectorized", 0) == 0

        # and the re-entered plan still executes bit-identically
        b = np.arange(8, dtype=np.float64)
        a_vec, a_ref = np.zeros(8), np.zeros(8)
        execute_kernel(kernel, {"a": a_vec, "b": b, "n": 8},
                       backend="vector")
        execute_kernel(kernel, {"a": a_ref, "b": b, "n": 8},
                       backend="scalar")
        assert a_vec.tobytes() == a_ref.tobytes()

    def test_version_stamp_mismatch_is_unloadable(self, tmp_path,
                                                  monkeypatch):
        """A plan persisted by a different codegen version must be
        ignored and recompiled, never executed."""
        configure_plan_cache(tmp_path / "plans")
        kernel = _kernel()
        compile_kernel_fn(kernel, None, "vector")
        path, = plan_cache_dir().glob("*.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == PLAN_SCHEMA
        payload["schema"] = "exec-plan-v0"
        payload["source"] = "raise AssertionError('stale plan executed')"
        path.write_text(json.dumps(payload))

        clear_kernel_cache(memory_only=True)
        reset_registry()
        calls = _counting_codegen(monkeypatch)
        fn, _ = compile_kernel_fn(kernel, None, "vector")
        assert len(calls) == 1, "stale plan was loaded instead of recompiled"
        counters = get_registry().snapshot()["counters"]
        assert counters.get("executor.plan_disk_hit", 0) == 0
        assert counters["executor.vectorized"] == 1
        # the stale file was dropped and replaced by a fresh plan
        fresh = json.loads(path.read_text())
        assert fresh["schema"] == PLAN_SCHEMA

    @pytest.mark.parametrize("source", [None, "x = 1", "def _kernel(:"],
                             ids=["not-json", "no-kernel", "syntax-error"])
    def test_corrupt_plan_is_a_miss(self, tmp_path, monkeypatch, source):
        """Any plan that fails to load is dropped and recompiled; the key
        never stays wedged on the bad file."""
        configure_plan_cache(tmp_path / "plans")
        kernel = _kernel()
        compile_kernel_fn(kernel, None, "vector")
        path, = plan_cache_dir().glob("*.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == PLAN_SCHEMA
        path.write_text("{not json" if source is None
                        else json.dumps({**payload, "source": source}))
        clear_kernel_cache(memory_only=True)
        calls = _counting_codegen(monkeypatch)
        compile_kernel_fn(kernel, None, "vector")
        assert len(calls) == 1
        # the bad file was replaced by a fresh plan that loads warm
        assert json.loads(path.read_text()) == payload
        clear_kernel_cache(memory_only=True)
        reset_registry()
        fn, _ = compile_kernel_fn(kernel, None, "vector")
        assert len(calls) == 1
        counters = get_registry().snapshot()["counters"]
        assert counters["executor.plan_disk_hit"] == 1

    def test_clear_kernel_cache_wipes_disk_tier(self, tmp_path):
        configure_plan_cache(tmp_path / "plans")
        compile_kernel_fn(_kernel(), None, "vector")
        assert list(plan_cache_dir().glob("*.json"))
        clear_kernel_cache()
        assert list(plan_cache_dir().glob("*.json")) == []

    def test_memory_only_clear_keeps_disk(self, tmp_path):
        configure_plan_cache(tmp_path / "plans")
        compile_kernel_fn(_kernel(), None, "vector")
        clear_kernel_cache(memory_only=True)
        assert list(plan_cache_dir().glob("*.json"))

    def test_plans_keyed_per_backend(self, tmp_path):
        configure_plan_cache(tmp_path / "plans")
        kernel = _kernel()
        compile_kernel_fn(kernel, None, "scalar")
        compile_kernel_fn(kernel, None, "vector")
        assert len(list(plan_cache_dir().glob("*.json"))) == 2

    def test_unconfigured_tier_is_inert(self):
        assert plan_cache_dir() is None
        compile_kernel_fn(_kernel(), None, "vector")
        counters = get_registry().snapshot()["counters"]
        assert "executor.plan_disk_store" not in counters

    def test_bad_plan_dir_is_one_clear_error(self, tmp_path):
        from repro.service import CacheDirError

        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(CacheDirError):
            configure_plan_cache(blocker / "plans")
