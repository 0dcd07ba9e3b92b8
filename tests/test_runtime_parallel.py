"""Batch kernel execution and the exec sweep (docs/EXECUTOR.md).

The contract: a sweep's digest is the same on every run — cold, and
under injected compile faults with retries.
"""

import numpy as np
import pytest

from repro.frontend import parse_kernel
from repro.runtime.executor import clear_kernel_cache
from repro.runtime.parallel import (
    ExecTask,
    run_exec_sweep,
    run_tasks,
)
from repro.service import CompileService
from repro.telemetry import get_registry, reset_registry
from repro.telemetry.spans import configure_tracer, reset_tracer

SIZES = {"ge": 48, "lud": 64, "hydro": 48}

#: run_exec_sweep's digest at SIZES, as recorded before the grid lowering
#: and the streamed digest: both backends must keep producing it
SWEEP_DIGEST = (
    "b1c173d45ebe286f98c9241f29eaf10c4f84290e6a39fab33c93afc49da0fb3d"
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


def _cold_run() -> tuple[str, dict[str, int]]:
    clear_kernel_cache()
    reset_registry()
    result = run_exec_sweep(service=CompileService(), sizes=SIZES)
    counters = dict(get_registry().snapshot()["counters"])
    return result["digest"], counters


class TestRunTasks:
    def _tasks(self, count: int = 3) -> list[ExecTask]:
        kernel = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = b[i] * 2.0f + 1.0f; }"
        )
        tasks = []
        for t in range(count):
            b = np.arange(16, dtype=np.float64) + t
            tasks.append(ExecTask(label=f"t{t}", kernel=kernel,
                                  args={"a": np.zeros(16), "b": b, "n": 16}))
        return tasks

    def test_inline_results_correct(self):
        results = run_tasks(self._tasks(), backend="vector")
        for t, buffers in enumerate(results):
            expected = (np.arange(16, dtype=np.float64) + t) * 2 + 1
            assert np.array_equal(buffers["a"], expected)

    def test_task_arguments_not_mutated_in_parent(self):
        tasks = self._tasks(1)
        before = tasks[0].args["a"].copy()
        results = run_tasks(tasks, backend="vector")
        # tasks run on private copies: the caller's buffers only change
        # through the returned results
        assert np.array_equal(tasks[0].args["a"], before)
        assert not np.array_equal(results[0]["a"], before)


class TestSweepDeterminism:
    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_digest_is_pinned(self, backend):
        result = run_exec_sweep(service=CompileService(), backend=backend,
                                sizes=SIZES)
        assert result["digest"] == SWEEP_DIGEST

    def test_sweep_digest_of_a_stream_equals_that_of_a_list(self):
        from repro.runtime.parallel import sweep_digest

        results = run_tasks(TestRunTasks()._tasks(), backend="vector")
        assert sweep_digest(iter(results)) == sweep_digest(results)

    def test_cold_runs_identical(self):
        digest1, counters1 = _cold_run()
        digest2, counters2 = _cold_run()
        assert digest1 == digest2
        assert counters1 == counters2, "counter drift between cold runs"

    def test_deterministic_under_faults_and_retries(self):
        from repro.faults import parse_fault_spec

        baseline, _ = _cold_run()
        clear_kernel_cache()
        reset_registry()
        service = CompileService(
            fault_plan=parse_fault_spec("transient:p=0.3,seed=11"),
            retries=3,
        )
        result = run_exec_sweep(service=service, sizes=SIZES)
        assert result["digest"] == baseline

    def test_task_spans_in_trace(self):
        tracer = configure_tracer(enabled=True)
        result = run_exec_sweep(service=CompileService(), sizes=SIZES)
        tasks = tracer.spans_named("exec.task")
        assert [span.attributes["task"] for span in tasks] == result["tasks"]
        assert all("lane" not in span.attributes for span in tasks)

    def test_repeats_extend_task_list(self):
        result = run_exec_sweep(service=CompileService(), sizes=SIZES,
                                repeats=2)
        labels = result["tasks"]
        assert len(labels) == 12
        assert "ge_fan1#0" in labels and "ge_fan1#1" in labels
