"""The verifier's per-expression use facts keep every verdict.

``def-before-use`` and ``known-arrays`` read :meth:`Expr.uses` — the
sorted scalar names and the pre-order array names of an expression,
computed once and kept on the (immutable, shared) node.  The facts carry
names only, never a verdict, so a pass that moves an already-verified
expression into a context where it is wrong must still be caught.  The
failure lists below (checks, messages and order) were recorded from the
verifier that walked every expression afresh.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from repro.frontend import parse_kernel
from repro.ir.expr import ArrayRef, BinOp, Var
from repro.ir.stmt import Assign
from repro.ir.verify import VerifyError, check_kernel
from repro.ir.visitors import clone_kernel
from repro.passes import PassContext, Pipeline
from repro.passes import registry

from tests.passes.test_verifier_mutations import CATALOG, clean_kernel

#: kernels with several failures each, from one check and from many
BROKEN_SOURCES = {
    "scalars-and-arrays": """
void b1(float *out, const float *in, int n) {
    int i; float s; float t;
    out[0] = s + t * q;
    for (i = 0; i < m; i++) {
        out[i] = ghost[i] + in[k] + ghost[j] * in[ghost[i]];
    }
    if (n > 0) { u = 1.0f; } else { v = 2.0f; }
    out[1] = u + v;
    while (w < n) { out[2] = w; }
}
""",
    "store-subscripts": """
void b2(float *out, int n) {
    int i;
    for (i = z; i < n; i++) {
        other[i + y] = out[x * i] + 1.0f;
        out[idx[i]] = out[i] - out[idx[i + 1]];
    }
    if (n > c) { float a = d + 1.0f; out[0] = a; }
}
""",
}

EXPECTED_BROKEN = {
    "scalars-and-arrays": [
        "[def-before-use] b1: scalar 'q' used in assignment value before any definition",
        "[def-before-use] b1: scalar 'm' used in bounds of loop over 'i' before any definition",
        "[def-before-use] b1: scalar 'j' used in assignment value before any definition",
        "[def-before-use] b1: scalar 'k' used in assignment value before any definition",
        "[known-arrays] b1: array 'ghost' referenced in assignment value is not an array parameter",
        "[known-arrays] b1: array 'ghost' referenced in assignment value is not an array parameter",
        "[known-arrays] b1: array 'ghost' referenced in assignment value is not an array parameter",
        "[def-before-use] b1: scalar 'u' used in assignment value before any definition",
        "[def-before-use] b1: scalar 'v' used in assignment value before any definition",
        "[def-before-use] b1: scalar 'w' used in while condition before any definition",
        "[def-before-use] b1: scalar 'w' used in assignment value before any definition",
    ],
    "store-subscripts": [
        "[def-before-use] b2: scalar 'z' used in bounds of loop over 'i' before any definition",
        "[def-before-use] b2: scalar 'x' used in assignment value before any definition",
        "[def-before-use] b2: scalar 'y' used in store subscript before any definition",
        "[known-arrays] b2: array 'other' referenced in store subscript is not an array parameter",
        "[known-arrays] b2: array 'idx' referenced in assignment value is not an array parameter",
        "[known-arrays] b2: array 'idx' referenced in store subscript is not an array parameter",
        "[def-before-use] b2: scalar 'c' used in if condition before any definition",
        "[def-before-use] b2: scalar 'd' used in initializer of 'a' before any definition",
    ],
}

#: ``check_kernel(clean_kernel() mutated by CATALOG[name], "strict")``
EXPECTED_CATALOG = {
    "aliased-statement": [
        "[stmt-integrity] k0: For node appears more than once in the tree (aliased statement; transforms must clone)",
    ],
    "cache-never-read": [
        "[directive-cache] k0 (loop id {l0}): cache(buf) stages an array the loop over 'i' never reads",
    ],
    "cache-on-written": [
        "[directive-cache] k0 (loop id {l0}): cache(out) stages an array the loop over 'i' writes: staged reads would miss the update",
    ],
    "collapse-on-flat-loop": [
        "[collapse-legality] k0 (loop id {l0}): collapse(2) on loop over 'i' but the perfect nest is only 1 deep",
    ],
    "copyin-on-written": [
        "[directive-data] k0: copyin(out) on an array the kernel writes: the host copy would silently diverge",
    ],
    "copyout-never-written": [
        "[directive-data] k0: copyout(buf) on an array the kernel never writes",
    ],
    "create-on-live-in": [
        "[directive-data] k0: create(in) on an array that is live on entry (read before written): device buffer would hold garbage",
    ],
    "data-unknown-array": [
        "[directive-data] k0: data clause copy(ghost) names an unknown array",
    ],
    "duplicate-loop-id": [
        "[unique-loop-ids] k0 (loop id {l0}): loop id {l0} used by loops over 'i' and 'i'",
    ],
    "duplicate-param": [
        "[unique-params] k0: parameter 'out' declared twice",
    ],
    "gang-inside-gang": [
        "[gang-worker-nesting] k0 (loop id {l1}): loop over 'i' schedules gang inside the loop over 'i', which already occupies that parallelism level or finer",
    ],
    "if-body-not-block": [
        "[stmt-integrity] k0: If.then_body is not a Block",
    ],
    "illegal-compound-op": [
        "[stmt-integrity] k0: compound assignment operator '%' is illegal",
    ],
    "non-lvalue-target": [
        "[stmt-integrity] k0: assignment target is IntLit, not an lvalue",
    ],
    "non-positive-step": [
        "[stmt-integrity] k0 (loop id {l0}): loop over 'i' has non-positive step 0",
    ],
    "non-stmt-in-block": [
        "[stmt-integrity] k0: Block contains non-statement str",
    ],
    "undefined-scalar-use": [
        "[def-before-use] k0: scalar 'ghost' used in assignment value before any definition",
    ],
    "unknown-array-ref": [
        "[known-arrays] k0: array 'ghost' referenced in assignment value is not an array parameter",
    ],
    "unknown-stmt-node": [
        "[stmt-integrity] k0: unknown statement node _AlienStmt",
    ],
    "write-const-param": [
        "[param-intent] k0: const (intent 'in') array 'in' is written",
    ],
}


@pytest.mark.parametrize("name", sorted(BROKEN_SOURCES))
def test_broken_kernel_failures_are_pinned(name):
    kernel = parse_kernel(BROKEN_SOURCES[name])
    expected = EXPECTED_BROKEN[name]
    assert [str(f) for f in check_kernel(kernel, "strict")] == expected
    # a second run reads the kept use facts and says the same
    assert [str(f) for f in check_kernel(kernel, "strict")] == expected
    # and a clone, which shares every expression node, says it too
    clone = clone_kernel(kernel)
    assert [str(f) for f in check_kernel(clone, "structure")] == expected


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_failures_are_pinned(name):
    mutate, _ = CATALOG[name]
    kernel = clean_kernel()
    loop_ids = {f"l{pos}": loop.loop_id for pos, loop in
                enumerate(kernel.loops())}
    mutate(kernel)
    expected = [line.format(**loop_ids) for line in EXPECTED_CATALOG[name]]
    assert [str(f) for f in check_kernel(kernel, "strict")] == expected


def test_catalog_pins_cover_the_catalog():
    assert sorted(EXPECTED_CATALOG) == sorted(CATALOG)


# -- registered passes that break a kernel through a shared expression --------

#: expressions verified clean in a kernel that declares ``scale`` and has
#: a ``w`` array, then reused by a pass in ``k0``, which has neither
SHARED = {
    "use-before-def": BinOp("*", Var("scale"), ArrayRef("in", (Var("i"),))),
    "unknown-array": BinOp("*", Var("s"), ArrayRef("w", (Var("i"),))),
}

EXPECTED_SHARED = {
    "use-before-def": [
        "[def-before-use] k0: scalar 'scale' used in assignment value "
        "before any definition",
    ],
    "unknown-array": [
        "[known-arrays] k0: array 'w' referenced in assignment value is "
        "not an array parameter",
    ],
}


def _insert(kernel, expr):
    loop = kernel.loops()[0]
    loop.body.stmts.insert(0, Assign(ArrayRef("out", (Var("i"),)), expr))
    return kernel


@pytest.fixture
def shared_passes(monkeypatch):
    for kind, expr in SHARED.items():
        name = f"test-shared-{kind}"
        monkeypatch.setitem(registry._REGISTRY, name, registry.Pass(
            name=name, fn=lambda kernel, ctx, expr=expr: _insert(kernel, expr),
            description="test-only: reuse an already-verified expression",
            semantics_preserving=False))


def _verify_where_legal(expr):
    host = parse_kernel("""
void host(float *out, const float *in, const float *w, float scale, int n) {
    int i;
    float s;
    s = 1.0f;
    for (i = 0; i < n; i++) { out[i] = 0.0f; }
}""")
    assert check_kernel(_insert(host, expr), "strict") == []


@pytest.mark.parametrize("kind", sorted(SHARED))
def test_pass_reusing_a_verified_expression_is_caught(shared_passes, kind):
    _verify_where_legal(SHARED[kind])
    assert "_uses" in vars(SHARED[kind])  # the facts are kept
    pass_name = f"test-shared-{kind}"
    with pytest.raises(VerifyError) as exc:
        Pipeline("t", (pass_name,)).run(clean_kernel(), PassContext())
    assert [str(f) for f in exc.value.failures] == EXPECTED_SHARED[kind]
    assert exc.value.provenance == (pass_name,)
    assert str(exc.value).splitlines()[0] == (
        "IR verification failed (1 violation(s)) after pass "
        f"'{pass_name}' (trail: {pass_name})"
    )


# -- the memo itself -------------------------------------------------------------


def test_uses_is_one_traversal_of_the_tree():
    expr = parse_kernel("""
void f(float *a, const float *b, const int *e, int n, int m) {
    a[0] = b[e[n]] * (float)m + a[n + m] - b[n];
}""").body.stmts[0].value
    assert expr.uses() == (("m", "n"), ("b", "e", "a", "b"))
    assert expr.uses() is expr.uses()


def test_memo_is_left_out_of_pickles_and_copies():
    expr = BinOp("+", Var("x"), ArrayRef("a", (Var("i"),)))
    before = pickle.dumps(expr)
    expr.uses()
    assert pickle.dumps(expr) == before
    assert "_uses" not in vars(pickle.loads(before))
    assert "_uses" not in vars(copy.copy(expr))
    assert copy.deepcopy(expr) == expr


def test_free_vars_and_arrays_referenced_read_the_use_facts():
    from repro.ir.expr import arrays_referenced, free_vars

    expr = BinOp("+", Var("x"), ArrayRef("a", (Var("i"), Var("x"))))
    assert free_vars(expr) == {"i", "x"}
    assert arrays_referenced(expr) == {"a"}
    assert "_uses" in vars(expr)


@pytest.mark.parametrize("level", ["structure", "strict"])
def test_a_checked_kernel_is_freed_without_the_cyclic_collector(level):
    """The checks leave no reference cycle that holds the kernel."""
    gc.disable()
    try:
        kernel = clean_kernel()
        assert check_kernel(kernel, level) == []
        ref = weakref.ref(kernel)
        del kernel
        assert ref() is None
    finally:
        gc.enable()
