"""Tests for IR traversal/cloning/rewriting."""

from repro.frontend import parse_kernel
from repro.ir import (
    Assign,
    Block,
    For,
    Var,
    clone_kernel,
    clone_stmt,
    const,
    print_kernel,
    scalar_writes,
    stmt_arrays,
    stmt_free_vars,
    substitute_in_stmt,
    writes_and_reads,
)

SRC = """
void k(float *a, float *b, int n) {
    int i, j;
    for (i = 0; i < n; i++) {
        float s = b[i];
        for (j = 0; j < i; j++) {
            s += a[i * n + j] * b[j];
        }
        a[i * n + i] = s;
    }
}
"""


class TestClone:
    def test_deep_copy_independent(self):
        k = parse_kernel(SRC)
        k2 = clone_kernel(k)
        k2.loops()[0].body.stmts.clear()
        assert len(k.loops()[0].body.stmts) == 3

    def test_loop_ids_preserved(self):
        k = parse_kernel(SRC)
        k2 = clone_kernel(k)
        assert [l.loop_id for l in k.loops()] == [l.loop_id for l in k2.loops()]

    def test_text_identical(self):
        k = parse_kernel(SRC)
        assert print_kernel(clone_kernel(k)) == print_kernel(k)


class TestRewrite:
    def test_substitute_in_stmt(self):
        k = parse_kernel(SRC)
        body = substitute_in_stmt(k.body, {"n": const(8)})
        assert "n" not in stmt_free_vars(body)


class TestCollectors:
    def test_stmt_arrays(self):
        k = parse_kernel(SRC)
        assert stmt_arrays(k.body) == {"a", "b"}

    def test_scalar_writes(self):
        k = parse_kernel(SRC)
        assert "s" in scalar_writes(k.body)

    def test_writes_and_reads(self):
        k = parse_kernel(SRC)
        writes, reads = writes_and_reads(k.body)
        assert {w.name for w in writes} == {"a"}
        assert {r.name for r in reads} == {"a", "b"}

    def test_compound_assign_counts_as_read(self):
        k = parse_kernel("void f(float *a) { a[0] += 1.0f; }")
        writes, reads = writes_and_reads(k.body)
        assert len(writes) == 1 and any(r.name == "a" for r in reads)

    def test_index_arrays_are_reads(self):
        k = parse_kernel(
            "void f(int *c, const int *e, int n) { int i; "
            "for (i = 0; i < n; i++) c[e[i]] = 1; }"
        )
        writes, reads = writes_and_reads(k.body)
        assert any(r.name == "e" for r in reads)
