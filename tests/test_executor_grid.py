"""Grid lowering of two-level loop nests (docs/EXECUTOR.md, "The two
backends").

Every case runs under ``backend="check"``, which raises on any bitwise
difference between the scalar and vector backends, and then compares
the buffers with a separate scalar run.  The telemetry counters say which
path ran: ``executor.grid`` counts nests compiled as one grid, and
``executor.grid_fallback.<reason>`` counts runs that took the per-row
code instead.
"""

import gc

import numpy as np
import pytest

from repro.frontend import parse_kernel
from repro.runtime import vectorize
from repro.runtime.executor import (
    ExecMode,
    LoopSemantics,
    clear_kernel_cache,
    execute_kernel,
    kernel_python_source,
)
from repro.telemetry import get_registry, reset_registry

SNAPSHOT = LoopSemantics(ExecMode.PARALLEL_SNAPSHOT)
DTYPES = (np.float32, np.float64)

FAN2 = (
    "void f(float *a, float *m, float *b, int size, int t) { int i; int j; "
    "for (i = 0; i < size - 1 - t; i++) { for (j = 0; j < size - t; j++) { "
    "a[size * (i + 1 + t) + (j + t)] -= "
    "m[size * (i + 1 + t) + t] * a[size * t + (j + t)]; "
    "if (j == 0) { b[i + 1 + t] -= m[size * (i + 1 + t) + t] * b[t]; } "
    "} } }"
)

LUD_ROW = (
    "void f(float *a, int size, int i) { int j; int k; "
    "for (j = i; j < size; j++) { float sum = a[i * size + j]; "
    "for (k = 0; k < i; k++) { sum -= a[i * size + k] * a[k * size + j]; } "
    "a[i * size + j] = sum; } }"
)

SHARED_CELLS = (
    "void f(float *a, int n) { int i; int j; "
    "for (i = 0; i < n - 1; i++) { for (j = 0; j < n; j++) { "
    "a[(i + 1) * n + j] = a[i * n + j] + 1.0f; } } }"
)

LEAKS = (
    "void f(float *a, float *out, int n, int m) { int i; int j; "
    "for (i = 0; i < n; i++) { float w = out[i + 8] * 0.5f; int z = i * 2; "
    "for (j = 0; j < m; j++) { float q = a[i * m + j] * 2.0f; "
    "if (q > w) { q = q - w; } a[i * m + j] = q + w; } "
    "out[i] = w + z; } "
    "out[n] = i; out[n + 1] = j; out[n + 2] = w; out[n + 3] = z; "
    "out[n + 4] = q; }"
)


@pytest.fixture(autouse=True)
def _clean_state():
    clear_kernel_cache()
    reset_registry()
    yield
    clear_kernel_cache()
    reset_registry()


def _copy(args):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in args.items()}


def run_nest(source, args, modes="PP"):
    """Run *source* on the scalar and check backends, assert the buffers
    are bit-identical, and return the grid counters of the check run."""
    kernel = parse_kernel(source)
    semantics = {
        loop.loop_id: SNAPSHOT if mode == "P" else LoopSemantics()
        for loop, mode in zip(kernel.loops(), modes)
    }
    scalar, checked = _copy(args), _copy(args)
    execute_kernel(kernel, scalar, semantics, backend="scalar")
    clear_kernel_cache()
    reset_registry()
    execute_kernel(kernel, checked, semantics, backend="check")
    for name, value in scalar.items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == checked[name].tobytes(), name
    counters = get_registry().snapshot()["counters"]
    return {name: count for name, count in counters.items() if "grid" in name}


GRID_RAN = {"executor.grid": 1}


def _fan2_args(dtype, n=9, t=0):
    rng = np.random.default_rng(7)
    return {
        "a": rng.normal(size=n * n).astype(dtype),
        "m": rng.normal(size=n * n).astype(dtype),
        "b": rng.normal(size=n).astype(dtype),
        "size": n, "t": t,
    }


@pytest.mark.parametrize("dtype", DTYPES)
class TestGridBattery:
    def test_masked_fan2_nest_runs_as_a_grid(self, dtype):
        for t in (0, 3):
            assert run_nest(FAN2, _fan2_args(dtype, t=t)) == GRID_RAN

    def test_lud_reduction_nest_runs_as_a_grid(self, dtype):
        a = np.random.default_rng(3).normal(size=64).astype(dtype)
        for modes in ("PS", "PP", "SS"):
            assert run_nest(LUD_ROW, {"a": a, "size": 8, "i": 5},
                            modes) == GRID_RAN

    def test_empty_inner_and_outer_ranges_take_the_per_row_path(self, dtype):
        a = np.random.default_rng(3).normal(size=64).astype(dtype)
        empty = {"executor.grid": 1, "executor.grid_fallback.empty": 1}
        assert run_nest(LUD_ROW, {"a": a, "size": 8, "i": 0}) == empty
        assert run_nest(LUD_ROW, {"a": a, "size": 8, "i": 8}) == empty

    def test_rows_sharing_a_written_cell_fail_the_ownership_check(self, dtype):
        a = np.arange(36, dtype=dtype)
        for modes in ("PP", "SP"):
            assert run_nest(SHARED_CELLS, {"a": a, "n": 6}, modes) == {
                "executor.grid": 1,
                "executor.grid_fallback.ownership": 1,
            }

    def test_outer_statements_read_the_outer_snapshot(self, dtype):
        # b[i] reads a cell its own row's inner loop has just written,
        # and the scalar nest reads it from the outer loop's snapshot
        source = (
            "void f(float *a, float *b, int n) { int i; int j; "
            "for (i = 0; i < n; i++) { b[i] = a[i * n + 1] + 1.0f; "
            "for (j = 0; j < n; j++) { a[i * n + j] = a[i * n + j] * 2.0f; } "
            "b[i + n] = a[i * n] + b[i]; } }"
        )
        args = {"a": np.arange(25, dtype=dtype), "b": np.zeros(10, dtype),
                "n": 5}
        for modes in ("PP", "PS"):
            assert run_nest(source, args, modes) == GRID_RAN

    def test_nest_over_the_lane_budget_takes_the_per_row_path(
            self, dtype, monkeypatch):
        monkeypatch.setattr(vectorize, "GRID_LANES", 8 * 9 - 1)
        assert run_nest(FAN2, _fan2_args(dtype)) == {
            "executor.grid": 1,
            "executor.grid_fallback.lane-budget": 1,
        }
        monkeypatch.setattr(vectorize, "GRID_LANES", 8 * 9)
        assert run_nest(FAN2, _fan2_args(dtype)) == GRID_RAN

    def test_loop_variables_and_locals_leak_their_last_lane(self, dtype):
        rng = np.random.default_rng(5)
        a = rng.normal(size=64).astype(dtype)
        for modes in ("PP", "SS", "PS", "SP"):
            for n, m in ((3, 2), (1, 1), (5, 7)):
                out = rng.normal(size=16).astype(dtype)
                assert run_nest(LEAKS, {"a": a, "out": out, "n": n, "m": m},
                                modes) == GRID_RAN


class TestGridCodegen:
    def test_generated_function_holds_grid_and_per_row_paths(self):
        kernel = parse_kernel(FAN2)
        semantics = {loop.loop_id: SNAPSHOT for loop in kernel.loops()}
        source = kernel_python_source(kernel, semantics, "vector")
        assert "_vgrid_owned(a, " in source and "_vgrid_owned(b, " in source
        assert "_vgrid_fallback(" in source
        assert "for i in range(" in source  # the per-row escape

    def test_statically_legal_nest_skips_the_ownership_check(self):
        kernel = parse_kernel(LUD_ROW)
        semantics = {kernel.loops()[0].loop_id: SNAPSHOT}
        source = kernel_python_source(kernel, semantics, "vector")
        assert "_vreduce_rows(" in source
        assert "_vgrid_owned" not in source

    def test_inner_read_of_a_later_outer_local_stays_per_row(self):
        # row 0 reads the k the first loop left, row 1 the k row 0
        # declared: a value carried from row to row
        source = (
            "void f(float *a, int n) { int i; int j; int k; "
            "for (k = 0; k < 2; k++) { a[k] = 0.0f; } "
            "for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { "
            "a[i * n + j] = a[i * n + j] + k; } int k = i; } }"
        )
        a = np.random.default_rng(2).normal(size=49)
        assert run_nest(source, {"a": a, "n": 7}, "SPP") == {}

    def test_vector_codegen_leaves_no_cyclic_garbage(self):
        from repro.runtime.parallel import _sweep_tasks
        from repro.service import CompileService

        tasks = _sweep_tasks(CompileService(),
                             {"ge": 16, "lud": 16, "hydro": 16}, 1)
        gc.collect()
        gc.disable()
        try:
            for task in tasks:
                kernel_python_source(task.kernel, task.semantics, "vector")
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
