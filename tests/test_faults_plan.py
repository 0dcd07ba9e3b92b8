"""repro.faults: deterministic fault plans, spec parsing, and the
compile service reading its plan."""

import pytest

from repro.faults import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    PersistentCompileFault,
    TransientCompileFault,
    is_injected_fault,
    is_transient,
    parse_fault_spec,
)
from repro.frontend import parse_module
from repro.service import CompileService
from repro.service.fingerprint import CompileRequest
from repro.service.resilience import SimClock

FP = "a" * 64
FP2 = "b" * 64


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        plan_a = FaultPlan(seed=7, rules=(FaultRule("transient", 0.5),))
        plan_b = FaultPlan(seed=7, rules=(FaultRule("transient", 0.5),))
        decisions_a = [plan_a.compile_fault(FP, k) is not None
                       for k in range(64)]
        decisions_b = [plan_b.compile_fault(FP, k) is not None
                       for k in range(64)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seed_different_decisions(self):
        rules = (FaultRule("transient", 0.5),)
        a = [FaultPlan(seed=1, rules=rules).compile_fault(FP, k) is not None
             for k in range(64)]
        b = [FaultPlan(seed=2, rules=rules).compile_fault(FP, k) is not None
             for k in range(64)]
        assert a != b

    def test_probability_extremes(self):
        never = FaultPlan(seed=3, rules=(FaultRule("transient", 0.0),))
        always = FaultPlan(seed=3, rules=(FaultRule("transient", 1.0),))
        assert all(never.compile_fault(FP, k) is None for k in range(16))
        assert all(isinstance(always.compile_fault(FP, k),
                              TransientCompileFault) for k in range(16))

    def test_persistent_ignores_attempt(self):
        plan = FaultPlan(seed=11, rules=(FaultRule("persistent", 0.5),))
        fps = [ch * 64 for ch in "abcdefgh"]
        broken = [fp for fp in fps if plan.compile_fault(fp, 0) is not None]
        assert broken and len(broken) < len(fps)
        for fp in broken:
            # every attempt replays the same fault — retries cannot heal
            assert all(
                isinstance(plan.compile_fault(fp, k), PersistentCompileFault)
                for k in range(8)
            )

    def test_cache_fault_counter_advances(self):
        rules = (FaultRule("cache", 0.5),)
        first_plan = FaultPlan(seed=9, rules=rules)
        first = [first_plan.cache_fault("read", FP) for _ in range(32)]
        second_plan = FaultPlan(seed=9, rules=rules)
        second = [second_plan.cache_fault("read", FP) for _ in range(32)]
        assert first == second  # counter-based: a fresh plan replays
        assert any(first) and not all(first)

    def test_specific_cache_rule_beats_cache(self):
        plan = FaultPlan(seed=0, rules=(FaultRule("cache", 0.0),
                                        FaultRule("cache-write", 1.0)))
        assert plan.cache_fault("write", FP)
        assert not plan.cache_fault("read", FP)

    def test_duplicate_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="'transient' given twice"):
            FaultPlan(rules=(FaultRule("transient", 0.0),
                             FaultRule("transient", 1.0)))

    def test_transient_flags(self):
        t = TransientCompileFault("x")
        p = PersistentCompileFault("x")
        assert is_injected_fault(t) and is_injected_fault(p)
        assert is_transient(t)
        assert not is_transient(p)
        assert not is_injected_fault(ValueError("x"))

    def test_bad_rule_kind_and_probability(self):
        with pytest.raises(FaultSpecError):
            FaultRule("cosmic-ray", 0.5)
        with pytest.raises(FaultSpecError):
            FaultRule("transient", 1.5)


class TestParseFaultSpec:
    def test_single_clause(self):
        plan = parse_fault_spec("transient:p=0.3,seed=7")
        assert plan.seed == 7
        assert plan.rules == (FaultRule("transient", 0.3),)

    def test_multi_clause(self):
        plan = parse_fault_spec(
            "transient:p=0.2;persistent:p=0.1;cache:p=0.05;cache-read:p=1"
        )
        assert [r.kind for r in plan.rules] == [
            "transient", "persistent", "cache", "cache-read"]
        assert plan.rule("cache-read").probability == 1.0

    @pytest.mark.parametrize("bad", [
        "", "transient", "transient:q=0.3", "transient:p=oops",
        "transient:p=0.3,seed=x", "warp-drive:p=0.5",
        "transient:p=0.3,unknown=1", "slow:p=0.1",
        # a repeated kind or key would silently drop one of them
        "transient:p=0.0;transient:p=1.0", "transient:p=0.3,p=0.5",
        "cache:p=0.1,seed=1,seed=2",
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_describe_round_trips_the_shape(self):
        plan = parse_fault_spec("transient:p=0.3,seed=7;cache:p=0.05")
        assert plan.describe() == "seed=7 transient:p=0.3,cache:p=0.05"


def _counting_service(plan, calls):
    def compile_fn(request):
        calls.append(request.fingerprint)
        return f"artifact:{request.fingerprint[:4]}"

    return CompileService(compile_fn=compile_fn, fault_plan=plan,
                          clock=SimClock())


class TestServiceReadsPlan:
    """The service asks its plan before each compile attempt and each
    cache access; the write-rule case is in test_service_resilience's
    TestFlakyCache."""

    def _request(self):
        module = parse_module(
            "void k(float *a, int n) { int i;\n"
            "#pragma acc loop independent\n"
            "for (i = 0; i < n; i++) { a[i] = 1.0f; } }"
        )
        return CompileRequest(module, "pgi", "cuda")

    def test_empty_plan_compiles_like_no_plan(self):
        request = self._request()
        runs = []
        for plan in (None, FaultPlan(seed=0)):
            calls = []
            service = _counting_service(plan, calls)
            results = [service.compile_request(request) for _ in range(2)]
            counters = service.metrics.snapshot()
            del counters["time_saved_s"]  # wall-clock compile time
            runs.append((results, calls, counters,
                         service.cache.stats.snapshot()))
        assert runs[0] == runs[1]
        assert runs[0][1] == [request.fingerprint]  # one compile, one hit

    def test_injected_fault_never_reaches_the_compiler(self):
        calls = []
        service = _counting_service(
            FaultPlan(seed=0, rules=(FaultRule("transient", 1.0),)), calls)
        with pytest.raises(TransientCompileFault):
            service.compile_request(self._request())
        assert calls == []
        assert service.metrics.faults_injected == 1
