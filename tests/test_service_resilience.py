"""Resilient scheduling: retries, breakers, timeouts, rerun on a cache.

Everything here runs on a :class:`SimClock` (no real sleeping) except
the timeout-discard regression test, which needs genuine wall-clock
stragglers.
"""

import pickle

import pytest

from repro.compilers.framework import CompilationError
from repro.faults import (
    FaultPlan,
    FaultRule,
    PersistentCompileFault,
    TransientCompileFault,
)
from repro.frontend import parse_module
from repro.service import (
    ArtifactCache,
    CircuitBreaker,
    CompileRequest,
    CompileService,
    JobError,
    RetryPolicy,
    SimClock,
)

SOURCE = """
#pragma acc kernels
void demo(float *a, const float *b, int n) {
  int i;
  #pragma acc loop independent
  for (i = 0; i < n; i++) {
    a[i] = b[i] * %sf;
  }
}
"""


@pytest.fixture
def module():
    return parse_module(SOURCE % "2.0", "demo")


def variant_modules(count):
    """Distinct modules (distinct fingerprints), deterministic order."""
    return [parse_module(SOURCE % f"{k}.0", "demo") for k in range(count)]


def sweep_requests(count, compiler="caps", target="cuda"):
    return [
        CompileRequest(m, compiler, target, label=f"v{k}")
        for k, m in enumerate(variant_modules(count))
    ]


def artifact_key(result):
    """A byte-comparable identity for one sweep slot."""
    if isinstance(result, JobError):
        return ("error", result.kind, result.label, result.message)
    if isinstance(result, str):  # stub compile_fns return strings
        return ("ok", result)
    renders = tuple(
        kernel.ptx.render() if kernel.ptx is not None else ""
        for kernel in result.kernels
    )
    return ("ok", pickle.dumps(renders), result.compiler, result.target,
            getattr(result, "degraded_to", ""))


class TestRetry:
    def test_transient_fault_healed(self, module):
        clock = SimClock()
        # the first clean attempt for this fingerprint is found
        # empirically — the plan is a pure function, so the test adapts
        # to its draws instead of hard-coding them
        plan = FaultPlan(seed=0, rules=(FaultRule("transient", 0.6),))
        fingerprint = CompileRequest(module, "caps", "cuda").fingerprint
        first_ok = next(
            k for k in range(16)
            if plan.compile_fault(fingerprint, k) is None
        )
        service = CompileService(
            retry=RetryPolicy(max_retries=first_ok, base_s=0.01),
            fault_plan=plan, clock=clock,
        )
        artifact = service.compile(module, "caps", "cuda")
        assert artifact.kernels[0].ptx is not None
        assert service.metrics.retries == first_ok
        assert service.metrics.faults_injected == first_ok
        assert len(clock.sleeps) == first_ok  # slept on the sim clock only

    def test_backoff_is_exponential_with_jitter(self):
        policy = RetryPolicy(max_retries=5, base_s=0.02, multiplier=2.0,
                             jitter=0.5, seed=0)
        fp = "f" * 64
        backoffs = [policy.backoff_s(fp, k) for k in range(4)]
        for k, backoff in enumerate(backoffs):
            base = 0.02 * 2.0 ** k
            assert base * 0.5 <= backoff <= base * 1.5
        # deterministic: same (seed, fp, attempt) -> same jitter
        assert backoffs == [policy.backoff_s(fp, k) for k in range(4)]
        # de-synchronized across fingerprints
        assert backoffs != [policy.backoff_s("e" * 64, k) for k in range(4)]

    def test_retries_exhausted_surfaces_fault(self, module):
        plan = FaultPlan(seed=0, rules=(FaultRule("transient", 1.0),))
        service = CompileService(
            retry=RetryPolicy(max_retries=2), fault_plan=plan,
            clock=SimClock(),
        )
        with pytest.raises(TransientCompileFault):
            service.compile(module, "caps", "cuda")
        assert service.metrics.retries == 2
        assert service.metrics.faults_injected == 3  # initial + 2 retries

    def test_injected_fault_never_cached(self, module):
        """A transient fault must not poison the failure cache: the next
        request (without the fault) compiles cleanly."""
        plan = FaultPlan(seed=0, rules=(FaultRule("transient", 1.0),))
        cache = ArtifactCache()
        faulty = CompileService(cache=cache, fault_plan=plan,
                                clock=SimClock())
        with pytest.raises(TransientCompileFault):
            faulty.compile(module, "caps", "cuda")
        assert len(cache) == 0  # nothing cached for the injected fault
        clean = CompileService(cache=cache)
        artifact = clean.compile(module, "caps", "cuda")
        assert artifact.kernels[0].ptx is not None

    def test_deterministic_compile_error_still_cached(self, module):
        calls = []

        def failing(request):
            calls.append(request.fingerprint)
            raise CompilationError("nope")

        service = CompileService(
            compile_fn=failing, retry=RetryPolicy(max_retries=3),
            clock=SimClock(),
        )
        for _ in range(2):
            with pytest.raises(CompilationError):
                service.compile(module, "caps", "cuda")
        # not transient: no retries, and the failure replays from cache
        assert len(calls) == 1
        assert service.metrics.retries == 0

    def test_no_retry_policy_means_no_retries(self, module):
        plan = FaultPlan(seed=0, rules=(FaultRule("transient", 1.0),))
        service = CompileService(fault_plan=plan, clock=SimClock())
        with pytest.raises(TransientCompileFault):
            service.compile(module, "caps", "cuda")
        assert service.metrics.retries == 0


class TestFlakyCache:
    def test_flaky_read_degrades_to_miss(self, module):
        plan = FaultPlan(seed=0, rules=(FaultRule("cache-read", 1.0),))
        service = CompileService(fault_plan=plan, clock=SimClock())
        a = service.compile(module, "caps", "cuda")
        b = service.compile(module, "caps", "cuda")
        # every read flakes -> every request recompiles; results identical
        assert service.metrics.compiles == 2
        assert service.metrics.cache_io_errors == 2
        assert a.kernels[0].ptx.render() == b.kernels[0].ptx.render()

    def test_flaky_write_skips_store(self, module):
        plan = FaultPlan(seed=0, rules=(FaultRule("cache-write", 1.0),))
        cache = ArtifactCache()
        service = CompileService(cache=cache, fault_plan=plan,
                                 clock=SimClock())
        service.compile(module, "caps", "cuda")
        assert len(cache) == 0
        assert service.metrics.cache_io_errors == 1


class TestCircuitBreaker:
    def test_trips_after_threshold_and_degrades(self):
        """Persistent faults on caps-opencl open the breaker; once open,
        failing points degrade to caps-cuda, marked, never silent."""
        # drive the breaker with a compile_fn that fails the opencl route
        # with an *injected* fault (only kind="fault" counts for the
        # breaker) and no retry policy
        def failing_opencl(request):
            if request.target == "opencl":
                raise TransientCompileFault(
                    "injected", site="compile",
                    fingerprint=request.fingerprint,
                )
            from repro.core.method import compile_stage

            return compile_stage(request.module, request.compiler,
                                 request.target, request.flags)

        breaker = CircuitBreaker(failure_threshold=3)
        service = CompileService(compile_fn=failing_opencl, breaker=breaker,
                                 clock=SimClock())
        results = service.sweep(sweep_requests(6, target="opencl"))
        # first 2 failures: breaker counting; 3rd trips it; 3rd..6th degrade
        assert isinstance(results[0], JobError)
        assert isinstance(results[1], JobError)
        for slot in results[2:]:
            assert not isinstance(slot, JobError)
            assert slot.degraded is True
            assert slot.degraded_from == "caps-opencl"
            assert slot.degraded_to == "caps-cuda"
            assert slot.target == "cuda"
        assert service.metrics.degraded == 4
        assert service.stats_snapshot()["breaker"]["trips"] == 1
        state = service.registry.gauge("faults.breaker_state.caps-opencl")
        assert state.value == 1.0

    def test_success_closes_breaker(self, module):
        breaker = CircuitBreaker(failure_threshold=1)
        key = breaker.key_for("caps", "opencl")
        assert breaker.on_result(key, failed=True) == "tripped"
        assert breaker.is_open(key)
        assert breaker.on_result(key, failed=False) == "closed"
        assert not breaker.is_open(key)
        assert breaker.snapshot() == {"open": []}

    def test_compile_errors_do_not_trip(self):
        """Deterministic refusals (PGI has no OpenCL backend) are data,
        not infrastructure failure — the breaker must not re-route
        them."""
        breaker = CircuitBreaker(failure_threshold=2)
        service = CompileService(breaker=breaker, clock=SimClock())
        results = service.sweep(
            sweep_requests(5, compiler="pgi", target="opencl")
        )
        for slot in results:
            assert isinstance(slot, JobError)
            assert slot.kind == "compile-error"
        assert service.stats_snapshot()["breaker"]["trips"] == 0
        assert service.metrics.degraded == 0


class TestTimeoutDiscard:
    def test_discarded_result_is_idempotent(self):
        """Regression: a timed-out worker finishes later and stores its
        result anyway; the store must not double-count."""
        import time as _time

        plan = FaultPlan(seed=0, rules=(FaultRule("slow", 1.0, seconds=0.2),))

        def slow_compile(request):
            _time.sleep(plan.slow_penalty_s(request.fingerprint, 0))
            return f"artifact:{request.fingerprint[:8]}"

        cache = ArtifactCache()
        service = CompileService(
            cache=cache, compile_fn=slow_compile, jobs=2, timeout_s=0.05,
        )
        requests = sweep_requests(2)
        results = service.sweep(requests)
        assert all(isinstance(r, JobError) and r.kind == "timeout"
                   for r in results)
        # join the abandoned workers: their late results land in the cache
        service.close()
        assert cache.stats.stores == 2
        # the timed-out-but-completed artifacts are reused on re-sweep
        again = CompileService(cache=cache, compile_fn=slow_compile)
        warm = again.sweep(requests)
        assert [r for r in warm] == [f"artifact:{r.fingerprint[:8]}"
                                     for r in requests]
        assert again.metrics.compiles == 0
        # double-store is a counted no-op
        cache.put(requests[0].fingerprint, "anything")
        assert cache.stats.stores == 2
        assert cache.stats.redundant_stores == 1


class TestCacheRerun:
    """A killed sweep resumes by running it again on the same store."""

    def test_rerun_equals_uninterrupted(self):
        """Kill a sweep after 3 of 6 points, rerun it on the same cache,
        and compare byte-for-byte with an uninterrupted run."""
        requests = sweep_requests(6)
        expected = [artifact_key(r) for r in CompileService().sweep(requests)]

        cache = ArtifactCache()  # the shared tier a --cache-dir would give
        CompileService(cache=cache).sweep(requests[:3])  # "killed" here
        rerun_service = CompileService(cache=cache)
        rerun = rerun_service.sweep(requests)
        assert [artifact_key(r) for r in rerun] == expected
        # only the unfinished half compiled; the rest came from the store
        assert rerun_service.metrics.compiles == 3
        assert rerun_service.metrics.cache_hits == 3

    def test_rerun_with_breaker_equals_uninterrupted(self):
        """A persistently failing route behind a breaker: the rerun
        advances a fresh breaker through every point, so it degrades
        exactly the points the uninterrupted sweep degraded."""
        def failing_opencl(request):
            if request.target == "opencl":
                raise PersistentCompileFault(
                    "injected", site="compile.persistent",
                    fingerprint=request.fingerprint,
                )
            from repro.core.method import compile_stage

            return compile_stage(request.module, request.compiler,
                                 request.target, request.flags)

        def service(cache=None):
            return CompileService(
                cache=cache, compile_fn=failing_opencl, clock=SimClock(),
                breaker=CircuitBreaker(failure_threshold=2),
            )

        requests = sweep_requests(4, target="opencl")
        expected = [artifact_key(r) for r in service().sweep(requests)]
        assert [k[0] for k in expected] == ["error", "ok", "ok", "ok"]

        cache = ArtifactCache()
        service(cache).sweep(requests[:1])  # "killed" after point 1
        rerun_service = service(cache)
        rerun = rerun_service.sweep(requests)
        assert [artifact_key(r) for r in rerun] == expected
        assert isinstance(rerun[0], JobError) and rerun[0].kind == "fault"
        assert all(slot.degraded for slot in rerun[1:])
        assert rerun_service.metrics.degraded == 3

    def test_cached_refusal_reruns_field_for_field(self, tmp_path, module):
        def failing(request):
            raise CompilationError("deterministic refusal")

        requests = [CompileRequest(module, "caps", "cuda", label="bad")]
        first = CompileService(cache=ArtifactCache(cache_dir=tmp_path),
                               compile_fn=failing)
        (error,) = first.sweep(requests)
        assert isinstance(error, JobError)

        # a new process: a fresh store over the same directory
        second = CompileService(cache=ArtifactCache(cache_dir=tmp_path),
                                compile_fn=failing)
        (rerun,) = second.sweep(requests)
        assert isinstance(rerun, JobError)
        assert (rerun.label, rerun.fingerprint, rerun.kind, rerun.message,
                rerun.seconds) == (error.label, error.fingerprint,
                                   error.kind, error.message, error.seconds)
        assert second.metrics.compiles == 0
        assert second.metrics.cache_hits == 1


class TestDeterminismUnderFaults:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_jobs_invariant_under_faults(self, jobs):
        """Same seed + same plan => byte-identical sweep, serial or
        pooled, with retries healing a 30% transient rate."""
        requests = sweep_requests(12)
        # seed 0 heals within 3 retries for these 12 fingerprints (the
        # plan is a pure function, so this is a stable property, not luck)
        plan = FaultPlan(seed=0, rules=(FaultRule("transient", 0.3),
                                        FaultRule("cache", 0.1)))
        service = CompileService(
            jobs=jobs, fault_plan=plan,
            retry=RetryPolicy(max_retries=3), clock=SimClock(),
        )
        try:
            keys = [artifact_key(r) for r in service.sweep(requests)]
        finally:
            service.close()
        baseline = [artifact_key(r)
                    for r in CompileService().sweep(sweep_requests(12))]
        assert keys == baseline  # faults fully healed, order preserved
        assert service.metrics.faults_injected > 0  # the plan actually fired

    def test_faulted_run_repeats_itself(self):
        def run():
            plan = FaultPlan(seed=3, rules=(FaultRule("transient", 0.5),
                                            FaultRule("persistent", 0.2)))
            service = CompileService(
                fault_plan=plan, retry=RetryPolicy(max_retries=2),
                clock=SimClock(),
            )
            keys = [artifact_key(r) for r in service.sweep(sweep_requests(8))]
            return keys, service.metrics.snapshot()

        keys_a, metrics_a = run()
        keys_b, metrics_b = run()
        assert keys_a == keys_b
        assert metrics_a == metrics_b
        # with p=0.2 persistent over 8 fingerprints something stays broken
        assert any(k[0] == "error" for k in keys_a)
