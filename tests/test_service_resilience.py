"""Resilient scheduling: retries, flaky caches, rerun on a cache.

Everything here runs on a :class:`SimClock` (no real sleeping).
"""

import argparse
import pickle

import pytest

from repro.cli import _resilience_from_args
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
    CompileRequest,
    CompileService,
    JobError,
    SimClock,
    backoff_s,
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
    return ("ok", pickle.dumps(renders), result.compiler, result.target)


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
            retries=first_ok, fault_plan=plan, clock=clock,
        )
        artifact = service.compile(module, "caps", "cuda")
        assert artifact.kernels[0].ptx is not None
        assert service.metrics.retries == first_ok
        assert service.metrics.faults_injected == first_ok
        assert len(clock.sleeps) == first_ok  # slept on the sim clock only

    def test_backoff_is_exponential_with_jitter(self):
        fp = "f" * 64
        backoffs = [backoff_s(fp, k) for k in range(8)]
        for k, backoff in enumerate(backoffs):
            base = min(0.02 * 2.0 ** k, 1.0)  # capped at 1 s from k = 6
            assert base * 0.5 <= backoff <= base * 1.5
        # deterministic: same (fp, attempt) -> same jitter
        assert backoffs == [backoff_s(fp, k) for k in range(8)]
        # de-synchronized across fingerprints
        assert backoffs != [backoff_s("e" * 64, k) for k in range(8)]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            CompileService(retries=-1)

    def test_retries_exhausted_surfaces_fault(self, module):
        plan = FaultPlan(seed=0, rules=(FaultRule("transient", 1.0),))
        service = CompileService(retries=2, fault_plan=plan,
                                 clock=SimClock())
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

        service = CompileService(compile_fn=failing, retries=3,
                                 clock=SimClock())
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

    def test_rerun_with_persistent_fault_equals_uninterrupted(self):
        """A persistently failing caps/opencl route, on the service
        ``--faults`` builds: every slot is a ``kind="fault"`` JobError,
        never an artifact of another target, uninterrupted and rerun
        alike."""
        def failing_opencl(request):
            if request.target == "opencl":
                raise PersistentCompileFault("injected")
            from repro.core.method import compile_stage

            return compile_stage(request.module, request.compiler,
                                 request.target, request.flags)

        kwargs = _resilience_from_args(
            argparse.Namespace(faults="transient:p=0", retries=None))

        def service(cache=None):
            return CompileService(cache=cache, compile_fn=failing_opencl,
                                  clock=SimClock(), **kwargs)

        requests = sweep_requests(6, target="opencl")
        uninterrupted = service().sweep(requests)

        cache = ArtifactCache()
        service(cache).sweep(requests[:2])  # "killed" after point 2
        rerun = service(cache).sweep(requests)
        for slots in (uninterrupted, rerun):
            assert all(isinstance(slot, JobError) and slot.kind == "fault"
                       for slot in slots)
            assert not any(getattr(slot, "target", "") == "cuda"
                           for slot in slots)
        assert [artifact_key(r) for r in rerun] == \
            [artifact_key(r) for r in uninterrupted]

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
            jobs=jobs, fault_plan=plan, retries=3, clock=SimClock(),
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
            service = CompileService(fault_plan=plan, retries=2,
                                     clock=SimClock())
            keys = [artifact_key(r) for r in service.sweep(sweep_requests(8))]
            return keys, service.metrics.snapshot()

        keys_a, metrics_a = run()
        keys_b, metrics_b = run()
        assert keys_a == keys_b
        assert metrics_a == metrics_b
        # with p=0.2 persistent over 8 fingerprints something stays broken
        assert any(k[0] == "error" for k in keys_a)
