"""Tests for the vectorizing executor backend (docs/EXECUTOR.md).

The design invariant under test is *bit*-compatibility: every kernel the
vectorizer accepts must produce byte-identical buffers to the scalar
interpreter, including NEP-50 weak-scalar promotion, C integer division,
masked stores, snapshot semantics, and left-to-right reductions.
"""

import numpy as np
import pytest

from repro.frontend import parse_kernel
from repro.runtime.executor import (
    ExecMode,
    LoopSemantics,
    clear_kernel_cache,
    compile_kernel_fn,
    execute_kernel,
    kernel_python_source,
)
from repro.telemetry import get_registry, reset_registry


def _fresh(args):
    return {
        k: (v.copy() if isinstance(v, np.ndarray) else v)
        for k, v in args.items()
    }


def run_both(kernel, args, semantics=None):
    """Execute on both backends; assert byte-identical arrays."""
    scalar, vector = _fresh(args), _fresh(args)
    execute_kernel(kernel, scalar, semantics, backend="scalar")
    execute_kernel(kernel, vector, semantics, backend="vector")
    for name, ref in scalar.items():
        if isinstance(ref, np.ndarray):
            assert ref.tobytes() == vector[name].tobytes(), name
    return scalar


def _vector_loop_count(kernel, semantics=None):
    from repro.runtime.vectorize import _VectorCodeGen

    gen = _VectorCodeGen(kernel, semantics)
    gen.source()
    return gen.vectorized_loops, gen.fallback_loops


class TestBitCompat:
    def test_stream(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = b[i] * 2.0f + 1.0f; }"
        )
        args = {"a": np.zeros(64), "b": np.linspace(-3, 3, 64), "n": 64}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_float32_promotion_chain(self):
        # float32 buffers + weak Python literals: the promotion path
        # where a wrong cast placement shows up immediately
        k = parse_kernel(
            "void f(float *a, const float *b, float x, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = b[i] * x + 0.25f - a[i] / 3.0f; }"
        )
        rng = np.random.default_rng(0)
        args = {
            "a": rng.normal(size=33).astype(np.float32),
            "b": rng.normal(size=33).astype(np.float32),
            "x": 1.7,
            "n": 33,
        }
        run_both(k, args)

    def test_masked_guard(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) { "
            "if (b[i] > 0.0f) a[i] = b[i]; else a[i] = -b[i]; } }"
        )
        args = {"a": np.zeros(32), "b": np.linspace(-1, 1, 32), "n": 32}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_gather_offset_snapshot(self):
        # a[i] reads a[i-1]: under snapshot semantics the read hits the
        # loop-entry copy, which the vector backend must reproduce
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1.0f; }"
        )
        lid = k.loops()[0].loop_id
        sem = {lid: LoopSemantics(ExecMode.PARALLEL_SNAPSHOT)}
        args = {"a": np.arange(16, dtype=np.float64), "n": 16}
        run_both(k, args, sem)
        assert _vector_loop_count(k, sem) == (1, 0)

    def test_scalar_reduction(self):
        k = parse_kernel(
            "void f(const float *a, float *out, int n) { int i; "
            "float s = 0.0f; for (i = 0; i < n; i++) s += a[i] * a[i];\n"
            "out[0] = s; }"
        )
        rng = np.random.default_rng(1)
        args = {"a": rng.normal(size=100), "out": np.zeros(1), "n": 100}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_product_reduction(self):
        k = parse_kernel(
            "void f(const float *a, float *out, int n) { int i; "
            "float p = 1.0f; for (i = 0; i < n; i++) p *= a[i];\n"
            "out[0] = p; }"
        )
        rng = np.random.default_rng(2)
        args = {
            "a": 1.0 + 0.01 * rng.normal(size=40),
            "out": np.zeros(1), "n": 40,
        }
        run_both(k, args)

    def test_c_integer_division(self):
        k = parse_kernel(
            "void f(int *q, int *r, const int *a, int d, int n) { int i; "
            "for (i = 0; i < n; i++) { q[i] = a[i] / d; r[i] = a[i] % d; } }"
        )
        a = np.array([-9, -7, -1, 0, 1, 7, 9, 11], dtype=np.int32)
        args = {
            "q": np.zeros(8, dtype=np.int32),
            "r": np.zeros(8, dtype=np.int32),
            "a": a, "d": 2, "n": 8,
        }
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_ternary_and_cast(self):
        k = parse_kernel(
            "void f(float *a, const int *b, int n) { int i; "
            "for (i = 0; i < n; i++) "
            "a[i] = b[i] > 2 ? (float) b[i] : 0.5f; }"
        )
        args = {
            "a": np.zeros(10),
            "b": np.arange(10, dtype=np.int32), "n": 10,
        }
        run_both(k, args)

    def test_sqrt_vector(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = sqrt(b[i] + 2.0f); }"
        )
        args = {"a": np.zeros(20), "b": np.linspace(0, 5, 20), "n": 20}
        run_both(k, args)

    def test_loop_var_leaks_final_value(self):
        # C/Python both leak the loop variable; code after the loop may
        # read it, so the vector lowering must restore it
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = 1.0f;\n"
            "a[0] = (float) i; }"
        )
        args = {"a": np.zeros(8), "n": 8}
        out = run_both(k, args)
        assert out["a"][0] == 7.0

    def test_empty_trip_count(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = 1.0f; }"
        )
        args = {"a": np.full(4, 9.0), "n": 0}
        out = run_both(k, args)
        assert out["a"].tolist() == [9.0] * 4


class TestWriteOrdering:
    def test_multi_writer_snapshot_interleaves(self):
        # two statements write overlapping cells of 'a': the final value
        # depends on the scalar loop's iteration-major write order, which
        # the deferred _vstore_multi scatter must reproduce
        k = parse_kernel(
            "void f(float *a, const float *b, int k, int n) { int j; "
            "for (j = 0; j < n; j++) { "
            "if (j != 3) { a[k] = a[k + 1] * 0.75f; } "
            "a[j] = a[j] + b[j]; } }"
        )
        lid = k.loops()[0].loop_id
        sem = {lid: LoopSemantics(ExecMode.PARALLEL_SNAPSHOT)}
        rng = np.random.default_rng(3)
        for cell in range(4):
            args = {
                "a": rng.normal(size=8), "b": rng.normal(size=8),
                "k": cell, "n": 4,
            }
            run_both(k, args, sem)
        assert _vector_loop_count(k, sem) == (1, 0)

    def test_single_writer_stays_direct(self):
        k = parse_kernel(
            "void f(float *a, float *b, int n) { int j; "
            "for (j = 0; j < n; j++) { a[j] = b[j] * 2.0f; "
            "b[j] = b[j] + 1.0f; } }"
        )
        lid = k.loops()[0].loop_id
        sem = {lid: LoopSemantics(ExecMode.PARALLEL_SNAPSHOT)}
        args = {"a": np.zeros(8), "b": np.arange(8, dtype=np.float64),
                "n": 8}
        run_both(k, args, sem)
        source = kernel_python_source(k, sem, backend="vector")
        assert "_vstore_multi" not in source


class TestFallbacks:
    def test_atomic_compound_never_vectorizes(self):
        # analyze_loop excludes atomics from its write set, so the
        # INDEPENDENT verdict cannot vouch for them: c[k] *= x applies
        # once per iteration even though k is loop-invariant
        k = parse_kernel(
            "void f(float *c, int k, int n) { int j; "
            "for (j = 0; j < n; j++) {\n"
            "#pragma acc atomic\n"
            "c[k] = c[k] * 0.75f; } }"
        )
        args = {"c": np.full(4, 16.0), "k": 1, "n": 4}
        out = run_both(k, args)
        assert out["c"][1] == pytest.approx(16.0 * 0.75**4)
        assert _vector_loop_count(k) == (0, 1)

    def test_dependent_sequential_falls_back(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1.0f; }"
        )
        args = {"a": np.zeros(16), "n": 16}
        run_both(k, args)  # recurrence: must run scalar
        assert _vector_loop_count(k) == (0, 1)

    def test_last_chunk_falls_back(self):
        k = parse_kernel(
            "void f(const float *a, float *out, int n) { int i; "
            "float s = 0.0f; for (i = 0; i < n; i++) s += a[i];\n"
            "out[0] = s; }"
        )
        lid = k.loops()[0].loop_id
        sem = {lid: LoopSemantics(ExecMode.REDUCTION_LAST_CHUNK, chunks=4)}
        args = {"a": np.ones(16), "out": np.zeros(1), "n": 16}
        out = run_both(k, args, sem)
        assert out["out"][0] == 4.0
        assert _vector_loop_count(k, sem) == (0, 1)

    def test_nested_loop_outer_falls_back_inner_vectorizes(self):
        # a triangular nest: the inner range moves with the outer loop,
        # so there is no rectangular grid and the outer loop runs scalar
        k = parse_kernel(
            "void f(float *a, int n) { int i; int j; "
            "for (i = 0; i < n; i++) { "
            "for (j = 0; j < i; j++) a[i * n + j] = a[i * n + j] * 2.0f; } }"
        )
        args = {"a": np.arange(16, dtype=np.float64), "n": 4}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 1)

    def test_rectangular_nest_lowers_as_one_grid(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; int j; "
            "for (i = 0; i < n; i++) { "
            "for (j = 0; j < n; j++) a[i * n + j] = a[i * n + j] * 2.0f; } }"
        )
        args = {"a": np.arange(16, dtype=np.float64), "n": 4}
        run_both(k, args)
        assert _vector_loop_count(k) == (2, 0)
        assert "_vgrid_reason" in kernel_python_source(k, backend="vector")


class TestCheckBackendAndTelemetry:
    def test_check_backend_runs_and_matches(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = b[i] * 2.0f; }"
        )
        a = np.zeros(8)
        execute_kernel(
            k, {"a": a, "b": np.arange(8, dtype=np.float64), "n": 8},
            backend="check",
        )
        assert a[3] == 6.0

    def test_check_compares_bits_in_place(self):
        from repro.runtime.executor import _same_bits

        nan = np.array([np.nan, 1.0, 0.0])
        assert _same_bits(nan, nan.copy())  # NaN-safe
        assert not _same_bits(nan, np.array([np.nan, 1.0, -0.0]))
        strided = np.arange(12, dtype=np.float32)[::3]  # no copy needed
        assert _same_bits(strided, strided.copy())
        assert not _same_bits(strided, strided + 1)

    def test_vectorized_counter_increments(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = 1.0f; }"
        )
        clear_kernel_cache()
        reset_registry()
        execute_kernel(k, {"a": np.zeros(4), "n": 4}, backend="vector")
        assert get_registry().counter("executor.vectorized").value == 1
        assert get_registry().counter("executor.fallback").value == 0

    def test_fallback_counter_increments(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1.0f; }"
        )
        clear_kernel_cache()
        reset_registry()
        execute_kernel(k, {"a": np.zeros(4), "n": 4}, backend="vector")
        assert get_registry().counter("executor.fallback").value == 1

    def test_vector_source_uses_arrays(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = 2.0f; }"
        )
        source = kernel_python_source(k, backend="vector")
        assert "np.arange" in source
        compile(source, "<test>", "exec")

    def test_backends_cache_separately(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 0; i < n; i++) a[i] = 1.0f; }"
        )
        clear_kernel_cache()
        reset_registry()
        compile_kernel_fn(k, backend="scalar")
        compile_kernel_fn(k, backend="vector")
        assert get_registry().counter("executor.cache_hit").value == 0
        compile_kernel_fn(k, backend="vector")
        assert get_registry().counter("executor.cache_hit").value == 1


def _ground_truth_corpus_check(seeds):
    """Scalar-vs-vector over generated cases' ground-truth executions."""
    from repro.difftest.generator import generate_case, make_inputs

    checked = 0
    for seed in seeds:
        case = generate_case(seed)
        for kernel in case.module.kernels:
            args = make_inputs(
                kernel, case.extents[kernel.name], f"vec{seed}:{kernel.name}"
            )
            run_both(kernel, args)
            checked += 1
    assert checked > 0


class TestCorpusEquivalence:
    def test_ground_truth_subset(self):
        # fast tier-1 slice of the corpus, no compilation involved
        _ground_truth_corpus_check(range(10))

    def test_compiled_plan_regressions(self):
        # seeds whose *compiled* execution plans historically exposed
        # vectorizer legality holes (multi-writer snapshot ordering;
        # atomic updates invisible to the dependence analyzer)
        from repro.difftest.generator import generate_case, make_inputs
        from repro.difftest.harness import PAIRS
        from repro.ir.visitors import clone_kernel
        from repro.service import CompileRequest, CompileService, JobError

        service = CompileService()
        checked = 0
        for seed in (2, 47):
            case = generate_case(seed)
            requests = [
                CompileRequest(case.module, c, t, label=f"vec{seed}")
                for c, t, _d in PAIRS
            ]
            for (c, t, device), result in zip(PAIRS, service.sweep(requests)):
                if isinstance(result, JobError):
                    continue
                for kernel in case.module.kernels:
                    try:
                        compiled = result.kernel(kernel.name)
                    except KeyError:
                        continue
                    sem = (
                        {} if compiled.elided
                        else compiled.executor_semantics(device)
                    )
                    args = make_inputs(
                        kernel, case.extents[kernel.name],
                        f"vec{seed}:{kernel.name}",
                    )
                    run_both(clone_kernel(compiled.ir), args, sem)
                    checked += 1
        assert checked > 0

    @pytest.mark.slow
    def test_full_corpus_under_check_backend(self):
        # acceptance gate: the whole 50-seed differential sweep with
        # every execution running both backends and asserting bit-equal
        from repro.difftest import run_difftest
        from repro.service import CompileService

        report = run_difftest(
            range(50), service=CompileService(), exec_backend="check"
        )
        assert report.unexplained == [], [
            detail
            for case in report.unexplained
            for detail in case.unexplained_details()
        ]


class TestLoopLocals:
    """ISSUE-9 lift: top-level loop locals vectorize via np.where masking
    instead of rejecting the whole loop."""

    def test_guarded_local_masked_update(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) { float t = b[i] * 2.0f; "
            "if (b[i] > 0.0f) { t = t + 1.0f; } a[i] = t; } }"
        )
        args = {"a": np.zeros(32), "b": np.linspace(-2, 2, 32), "n": 32}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_local_without_initializer(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) { float t; t = b[i] * 0.5f; "
            "a[i] = t + t; } }"
        )
        args = {"a": np.zeros(16), "b": np.linspace(0, 3, 16), "n": 16}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_int_local_masked(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) { int t = 0; "
            "if (b[i] > 0.5f) { t = 1; } a[i] = b[i] + t; } }"
        )
        args = {"a": np.zeros(16), "b": np.linspace(0, 1, 16), "n": 16}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_compound_update_on_local(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) { float t = b[i]; t += 1.0f; "
            "t *= 2.0f; a[i] = t; } }"
        )
        args = {"a": np.zeros(16), "b": np.linspace(-1, 1, 16), "n": 16}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_empty_loop_does_not_clobber(self):
        # the vectorized body is wrapped in `if iv.size:` when locals
        # exist, so an empty range must not define or clobber names
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) { float t = b[i]; a[i] = t; } }"
        )
        args = {"a": np.ones(4), "b": np.zeros(4), "n": 0}
        run_both(k, args)

    def test_division_compound_falls_back(self):
        # scalar `t /= x` is Python true division on a float local, not
        # the C-truncation helper: reject rather than approximate
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) { float t = b[i]; t /= 2.0f; "
            "a[i] = t; } }"
        )
        args = {"a": np.zeros(8), "b": np.linspace(1, 2, 8), "n": 8}
        run_both(k, args)
        assert _vector_loop_count(k) == (0, 1)

    def test_decl_under_if_falls_back_with_reason(self):
        k = parse_kernel(
            "void f(float *a, const float *b, int n) { int i; "
            "for (i = 0; i < n; i++) { "
            "if (b[i] > 0.0f) { float t = 1.0f; a[i] = t; } } }"
        )
        args = {"a": np.zeros(8), "b": np.linspace(-1, 1, 8), "n": 8}
        run_both(k, args)
        from repro.runtime.vectorize import _VectorCodeGen

        gen = _VectorCodeGen(k, None)
        gen.source()
        assert gen.fallback_reasons == {"guarded-loop": 1}


class TestMultiDimVector:
    """ISSUE-9 lift: rank-N element stores and gathers via fancy
    indexing instead of rejecting multi-dim subscripts."""

    def test_rank2_store_and_gather(self):
        k = parse_kernel(
            "void f(float a[8][8], const float b[8][8], int n) { int i; "
            "for (i = 0; i < n; i++) a[i][3] = b[i][2] * 2.0f + b[0][1]; }"
        )
        b = np.arange(64, dtype=np.float32).reshape(8, 8)
        args = {"a": np.zeros((8, 8), dtype=np.float32), "b": b, "n": 8}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_rank2_guarded_store(self):
        k = parse_kernel(
            "void f(float a[8][8], const float b[8][8], int n) { int i; "
            "for (i = 0; i < n; i++) { "
            "if (b[i][0] > 8.0f) { a[i][1] = b[i][0]; } } }"
        )
        b = np.arange(64, dtype=np.float32).reshape(8, 8)
        args = {"a": np.zeros((8, 8), dtype=np.float32), "b": b, "n": 8}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)

    def test_rank2_affine_row_offset(self):
        k = parse_kernel(
            "void f(float a[8][8], const float b[8][8], int n) { int i; "
            "for (i = 1; i < n; i++) a[i][2] = b[i - 1][2] + 1.0f; }"
        )
        b = np.arange(64, dtype=np.float32).reshape(8, 8)
        args = {"a": np.zeros((8, 8), dtype=np.float32), "b": b, "n": 8}
        run_both(k, args)
        assert _vector_loop_count(k) == (1, 0)


class TestFallbackReasonHistogram:
    """Every executor.fallback increment carries a reason tag; the
    histogram drives which rejection classes get lifted next."""

    def _reasons(self, kernel, semantics=None):
        from repro.runtime.vectorize import _VectorCodeGen

        gen = _VectorCodeGen(kernel, semantics)
        gen.source()
        return gen.fallback_reasons

    def test_nested_loop_reason(self):
        # three deep: the outer loop is no grid; the (j, k) nest is one
        k = parse_kernel(
            "void f(float *a, int n) { int i; int j; int k; "
            "for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { "
            "for (k = 0; k < 2; k++) "
            "a[(i * n + j) * 2 + k] = a[(i * n + j) * 2 + k] * 2.0f; } } }"
        )
        assert self._reasons(k) == {"nested-loop": 1}

    def test_ragged_nest_reason(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; int j; "
            "for (i = 0; i < n; i++) { "
            "for (j = 0; j < i; j++) a[i * n + j] = a[i * n + j] * 2.0f; } }"
        )
        assert self._reasons(k) == {"ragged-nest": 1}

    def test_atomics_reason(self):
        k = parse_kernel(
            "void f(float *c, int k, int n) { int j; "
            "for (j = 0; j < n; j++) {\n"
            "#pragma acc atomic\n"
            "c[k] = c[k] * 0.75f; } }"
        )
        assert self._reasons(k) == {"atomics": 1}

    def test_dependence_reason(self):
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1.0f; }"
        )
        assert self._reasons(k) == {"dependence": 1}

    def test_reduction_last_chunk_reason(self):
        k = parse_kernel(
            "void f(const float *a, float *out, int n) { int i; "
            "float s = 0.0f; for (i = 0; i < n; i++) s += a[i];\n"
            "out[0] = s; }"
        )
        lid = k.loops()[0].loop_id
        sem = {lid: LoopSemantics(ExecMode.REDUCTION_LAST_CHUNK, chunks=4)}
        assert self._reasons(k, sem) == {"reduction-last-chunk": 1}

    def test_reason_counters_surface_in_registry(self):
        clear_kernel_cache()
        reset_registry()
        k = parse_kernel(
            "void f(float *a, int n) { int i; "
            "for (i = 1; i < n; i++) a[i] = a[i - 1] + 1.0f; }"
        )
        compile_kernel_fn(k, None, "vector")
        counters = get_registry().snapshot()["counters"]
        assert counters["executor.fallback"] == 1
        assert counters["executor.fallback.dependence"] == 1
