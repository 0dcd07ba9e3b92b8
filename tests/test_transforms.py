"""Tests for the optimization-method transformation passes."""

import numpy as np
import pytest

from repro.frontend import parse_kernel
from repro.ir import AccLoop, HmppBlocksize, loop_nest_depth
from repro.runtime.executor import execute_kernel
from repro.passes.library.distribute import (
    DistributionError,
    clear_distribution,
    set_gang_worker,
    set_gridify_blocksize,
)
from repro.passes.library.independent import add_independent, is_independent
from repro.passes.library.reduction import ReductionError, add_reduction
from repro.passes.library.reorganize import (
    fuse_adjacent_loops,
    fuse_kernels,
    split_loop,
)
from repro.passes.library.tile import TileError, tile_in_kernel
from repro.passes.library.unroll import UnrollError, unroll_in_kernel

STREAM = """
void stream(float *a, const float *b, int n) {
    int i;
    for (i = 0; i < n; i++) {
        a[i] = b[i] * 2.0f + 1.0f;
    }
}
"""

TRIANGULAR = """
void tri(float *a, int size, int piv) {
    int j, k;
    for (j = piv; j < size; j++) {
        float sum = a[piv * size + j];
        for (k = 0; k < piv; k++) {
            sum -= a[piv * size + k] * a[k * size + j];
        }
        a[piv * size + j] = sum;
    }
}
"""


def run(kernel, **args):
    execute_kernel(kernel, args)
    return args


class TestAddIndependent:
    def test_annotates_provable(self):
        k = parse_kernel(STREAM)
        result = add_independent(k)
        assert result.annotated and not result.forced
        assert is_independent(result.kernel.loops()[0])

    def test_refuses_dependent(self):
        k = parse_kernel(
            "void f(float *A, int n) { int i; for (i = 1; i < n; i++) "
            "A[i] = A[i - 1]; }"
        )
        result = add_independent(k)
        assert not result.annotated and result.refused

    def test_force_overrides(self):
        k = parse_kernel(
            "void f(float *A, int n) { int i; for (i = 1; i < n; i++) "
            "A[i] = A[i - 1]; }"
        )
        result = add_independent(k, force_vars={"i"})
        assert result.forced and is_independent(result.kernel.loops()[0])

    def test_original_untouched(self):
        k = parse_kernel(STREAM)
        add_independent(k)
        assert not is_independent(k.loops()[0])


class TestDistribute:
    def test_gang_worker(self):
        k = parse_kernel(STREAM)
        out = set_gang_worker(k, k.loops()[0].loop_id, 256, 16)
        acc = out.loops()[0].directives.first(AccLoop)
        assert acc.gang == 256 and acc.worker == 16

    def test_invalid_sizes(self):
        k = parse_kernel(STREAM)
        with pytest.raises(DistributionError):
            set_gang_worker(k, k.loops()[0].loop_id, 0, 1)

    def test_gridify_requires_independent(self):
        k = parse_kernel(STREAM)
        with pytest.raises(DistributionError):
            set_gridify_blocksize(k, k.loops()[0].loop_id)
        k2 = add_independent(k).kernel
        out = set_gridify_blocksize(k2, k2.loops()[0].loop_id, 64, 2)
        hint = out.loops()[0].directives.first(HmppBlocksize)
        assert (hint.x, hint.y) == (64, 2)

    def test_clear(self):
        k = parse_kernel(STREAM)
        out = set_gang_worker(k, k.loops()[0].loop_id, 8, 8)
        cleared = clear_distribution(out, out.loops()[0].loop_id)
        acc = cleared.loops()[0].directives.first(AccLoop)
        assert acc.gang is None and acc.worker is None


class TestUnroll:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 13])
    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_semantics_preserved_any_trip_count(self, n, factor):
        k = parse_kernel(STREAM)
        unrolled = unroll_in_kernel(k, k.loops()[0].loop_id, factor)
        b = np.arange(max(n, 1), dtype=np.float64)
        a1 = np.zeros(max(n, 1))
        a2 = np.zeros(max(n, 1))
        run(k, a=a1, b=b, n=n)
        run(unrolled, a=a2, b=b, n=n)
        assert np.allclose(a1, a2)

    def test_inner_unroll_triangular(self):
        k = parse_kernel(TRIANGULAR)
        unrolled = unroll_in_kernel(k, k.loop_by_var("k").loop_id, 4)
        n = 12
        rng = np.random.default_rng(0)
        m = rng.random((n, n)) + n * np.eye(n)
        a1, a2 = m.flatten().copy(), m.flatten().copy()
        run(k, a=a1, size=n, piv=n // 2)
        run(unrolled, a=a2, size=n, piv=n // 2)
        assert np.allclose(a1, a2)

    def test_factor_validation(self):
        k = parse_kernel(STREAM)
        with pytest.raises(UnrollError):
            unroll_in_kernel(k, k.loops()[0].loop_id, 1)

    def test_jam_fuses_inner(self):
        src = """
void f(float *a, const float *b, int n, int m) {
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < m; j++) {
            a[i * m + j] += b[j];
        }
    }
}
"""
        k = parse_kernel(src)
        jammed = unroll_in_kernel(k, k.loop_by_var("i").loop_id, 2, jam=True)
        # jam keeps a single inner loop
        outer = jammed.loop_by_var("i")
        inner_loops = [s for s in outer.body.stmts if hasattr(s, "var")]
        assert len(inner_loops) == 1
        n, m = 5, 6
        b = np.arange(m, dtype=np.float64)
        a1, a2 = np.zeros(n * m), np.zeros(n * m)
        run(k, a=a1, b=b, n=n, m=m)
        run(jammed, a=a2, b=b, n=n, m=m)
        assert np.allclose(a1, a2)

    def test_step_multiplied(self):
        k = parse_kernel(STREAM)
        unrolled = unroll_in_kernel(k, k.loops()[0].loop_id, 4)
        assert unrolled.loops()[0].step == 4


class TestTile:
    @pytest.mark.parametrize("n", [1, 7, 16, 33])
    def test_strip_mine_semantics(self, n):
        k = parse_kernel(STREAM)
        tiled = tile_in_kernel(k, k.loops()[0].loop_id, 8)
        b = np.arange(n, dtype=np.float64)
        a1, a2 = np.zeros(n), np.zeros(n)
        run(k, a=a1, b=b, n=n)
        run(tiled, a=a2, b=b, n=n)
        assert np.allclose(a1, a2)

    def test_strip_mine_creates_nest(self):
        k = parse_kernel(STREAM)
        tiled = tile_in_kernel(k, k.loops()[0].loop_id, 8)
        assert loop_nest_depth(tiled.top_level_loops()[0]) == 2

    def test_2d_tile_semantics(self):
        src = """
void f(float *a, int n, int m) {
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < m; j++) {
            a[i * m + j] = a[i * m + j] + 1.0f;
        }
    }
}
"""
        k = parse_kernel(src)
        tiled = tile_in_kernel(k, k.loop_by_var("i").loop_id, (4, 4))
        n, m = 10, 13
        a1, a2 = np.zeros(n * m), np.zeros(n * m)
        run(k, a=a1, n=n, m=m)
        run(tiled, a=a2, n=n, m=m)
        assert np.allclose(a1, a2)
        assert loop_nest_depth(tiled.top_level_loops()[0]) == 4

    def test_size_validation(self):
        k = parse_kernel(STREAM)
        with pytest.raises(TileError):
            tile_in_kernel(k, k.loops()[0].loop_id, 1)


class TestReorganize:
    def test_fuse_adjacent(self):
        src = """
void f(float *a, float *b, int n) {
    int i;
    for (i = 0; i < n; i++) { a[i] = 1.0f; }
    for (i = 0; i < n; i++) { b[i] = 2.0f; }
}
"""
        k = parse_kernel(src)
        fused = fuse_adjacent_loops(k)
        assert len(fused.top_level_loops()) == 1
        n = 5
        a, b = np.zeros(n), np.zeros(n)
        run(fused, a=a, b=b, n=n)
        assert np.all(a == 1.0) and np.all(b == 2.0)

    def test_fuse_kernels_unions_params(self):
        from repro.frontend import parse_module
        mod = parse_module(
            "void f(float *a, int n) { int i; for (i = 0; i < n; i++) a[i] = 1.0f; }"
            "void g(float *a, float *b, int n) { int i; "
            "for (i = 0; i < n; i++) b[i] = a[i]; }",
            "m",
        )
        fused_mod = fuse_kernels(mod, ["f", "g"], "fg")
        assert [k.name for k in fused_mod.kernels] == ["fg"]
        fused = fused_mod.kernel("fg")
        assert {p.name for p in fused.params} == {"a", "b", "n"}
        assert len(fused.top_level_loops()) == 1  # headers matched -> fused

    def test_split_loop(self):
        src = """
void f(float *a, float *b, int n) {
    int i;
    for (i = 0; i < n; i++) {
        a[i] = 1.0f;
        b[i] = 2.0f;
    }
}
"""
        k = parse_kernel(src)
        fissioned = split_loop(k, k.loops()[0].loop_id)
        assert len(fissioned.top_level_loops()) == 2


class TestReduction:
    def test_annotates(self):
        k = parse_kernel(
            "void f(const float *a, float *out, int n) { int i; float s = 0.0f; "
            "for (i = 0; i < n; i++) s += a[i]; out[0] = s; }"
        )
        out = add_reduction(k, k.loops()[0].loop_id)
        acc = out.loops()[0].directives.first(AccLoop)
        assert acc.reduction.var == "s"

    def test_wrong_var(self):
        k = parse_kernel(
            "void f(const float *a, float *out, int n) { int i; float s = 0.0f; "
            "for (i = 0; i < n; i++) s += a[i]; out[0] = s; }"
        )
        with pytest.raises(ReductionError):
            add_reduction(k, k.loops()[0].loop_id, "zz")

    def test_not_a_reduction(self):
        k = parse_kernel(STREAM)
        with pytest.raises(ReductionError):
            add_reduction(k, k.loops()[0].loop_id)
