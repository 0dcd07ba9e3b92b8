"""Bench: the resilience acceptance gate on the Fig. 4 sweep.

Runs the full 72-point LUD heat-map grid under a 30% transient fault
rate with 3 retries and asserts the sweep heals completely — zero
JobError slots, results byte-identical to a fault-free sweep.  The
benchmark time is the cost of the faulted sweep including retry
backoffs (slept on a simulated clock, so the measurement is compile
work, not sleeping).
"""

from repro.core.search import (
    DEFAULT_GANGS,
    DEFAULT_WORKERS,
    distribution_requests,
)
from repro.faults import parse_fault_spec
from repro.kernels import get_benchmark
from repro.service import CompileService, JobError, SimClock


def _requests():
    return distribution_requests(
        get_benchmark("lud"), "caps", "cuda", DEFAULT_GANGS, DEFAULT_WORKERS
    )


def _faulted_sweep():
    service = CompileService(
        fault_plan=parse_fault_spec("transient:p=0.3,seed=11"),
        retries=3,
        clock=SimClock(),
    )
    results = service.sweep(_requests())
    return results, service.metrics.snapshot()


def test_faults_resilience(benchmark):
    results, metrics = benchmark.pedantic(
        _faulted_sweep, rounds=1, iterations=1, warmup_rounds=0
    )
    errors = [r for r in results if isinstance(r, JobError)]
    assert not errors, f"unhealed sweep points: {errors}"
    assert metrics["faults_injected"] > 0, "fault plan never fired"
    assert metrics["retries"] > 0

    baseline = CompileService().sweep(_requests())
    faulted_ptx = [
        [k.ptx.render() for k in slot.kernels] for slot in results
    ]
    baseline_ptx = [
        [k.ptx.render() for k in slot.kernels] for slot in baseline
    ]
    assert faulted_ptx == baseline_ptx  # healed means *byte-identical*
