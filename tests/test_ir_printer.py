"""Tests for the C printer, including parse -> print -> parse round trips."""

import pytest

from repro.frontend import parse_expr, parse_kernel
from repro.ir import format_expr, print_kernel, print_module, print_stmt
from repro.ir.stmt import Module


class TestFormatExpr:
    @pytest.mark.parametrize(
        "source",
        [
            "a + b * c",
            "(a + b) * c",
            "a / b / c",
            "a - (b - c)",
            "a < b && c >= d",
            "sqrt(x * x + y * y)",
            "q[1][i] + q[0][i]",
            "a[i * n + j]",
            "p ? x + 1 : y",
            "-x * 2",
        ],
    )
    def test_round_trip(self, source):
        expr = parse_expr(source)
        assert parse_expr(format_expr(expr)) == expr

    def test_minimal_parens(self):
        assert format_expr(parse_expr("a + b * c")) == "a + b * c"
        assert format_expr(parse_expr("(a + b) * c")) == "(a + b) * c"

    def test_float_suffixes(self):
        assert format_expr(parse_expr("2.5f")).endswith("f")
        assert "f" not in format_expr(parse_expr("2.5"))


KERNELS = [
    """
void saxpy(float *y, const float *x, float alpha, int n) {
    int i;
    #pragma acc loop independent gang(8) worker(32)
    for (i = 0; i < n; i++) {
        y[i] = y[i] + alpha * x[i];
    }
}
""",
    """
void nested(float *a, int n) {
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = i; j < n; j++) {
            float s = a[i * n + j];
            if (s > 0.0f) {
                a[i * n + j] = sqrt(s);
            } else {
                a[i * n + j] = 0.0f;
            }
        }
    }
}
""",
]


class TestKernelRoundTrip:
    @pytest.mark.parametrize("source", KERNELS)
    def test_fixpoint(self, source):
        once = print_kernel(parse_kernel(source))
        twice = print_kernel(parse_kernel(once))
        assert once == twice

    def test_directives_survive(self):
        text = print_kernel(parse_kernel(KERNELS[0]))
        assert "#pragma acc loop independent gang(8) worker(32)" in text

    def test_module_printer(self):
        mod = Module("m", [parse_kernel(k) for k in KERNELS])
        text = print_module(mod)
        assert "void saxpy" in text and "void nested" in text

    def test_print_stmt(self):
        k = parse_kernel(KERNELS[0])
        assert "for (i = 0; i < n; i++) {" in print_stmt(k.body)


class TestUndeclaredIndexFixpoint:
    """Tiling introduces loop indices (``i_t``, ``j_t``) that no Decl
    declares; the printer declares them, and the re-parsed declarations
    must re-print to the same text."""

    NEST = """
void nest(float *a, int n) {
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            a[i * n + j] = a[i * n + j] * 2.0f;
        }
    }
}
"""

    def test_tiled_nest_is_a_print_parse_fixpoint(self):
        from repro.ir.stmt import For
        from repro.passes.library.tile import tile_in_kernel

        kernel = parse_kernel(self.NEST)
        outer = next(s for s in kernel.body.walk() if isinstance(s, For))
        tiled = tile_in_kernel(kernel, outer.loop_id, (4, 4))
        once = print_kernel(tiled)
        assert "int i_t;\n" in once and "int j_t;\n" in once
        assert print_kernel(parse_kernel(once)) == once
