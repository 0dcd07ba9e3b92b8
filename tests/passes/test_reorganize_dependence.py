"""Regression: loop fusion must consult the dependence analysis.

``repro.passes.library.reorganize._fusable`` used to check *structural*
header compatibility only.  Two adjacent loops with identical headers
would be merged even when the second loop read elements the first had
not yet produced in the fused order — a value-changing "optimization".

The shrunk reproducer: loop A doubles ``x[i]``, loop B reads ``x[i+1]``.
Sequentially, B sees every doubled element (except the last, which A
never touches); fused, B's iteration ``i`` reads ``x[i+1]`` *before*
A's iteration ``i+1`` doubled it.  ``test_structural_fusion_was_wrong``
executes the would-have-been-fused kernel to prove the old behaviour
really changed values — the fix is not defensive paranoia.
"""

from __future__ import annotations

import numpy as np

from repro.frontend import parse_kernel
from repro.ir.stmt import For
from repro.passes import PassContext, Pipeline
from repro.passes.library.reorganize import fuse_adjacent_loops
from repro.runtime.executor import execute_kernel

#: the shrunk reproducer: flow dependence at distance 1 across the loops
FLOW_DEP = """
void shift(float *x, float *y, int n) {
    int i;
    for (i = 0; i < n - 1; i++) {
        x[i] = x[i] * 2.0f;
    }
    for (i = 0; i < n - 1; i++) {
        y[i] = x[i + 1];
    }
}
"""

#: what structural-only fusion used to produce for FLOW_DEP
FLOW_DEP_FUSED = """
void shift(float *x, float *y, int n) {
    int i;
    for (i = 0; i < n - 1; i++) {
        x[i] = x[i] * 2.0f;
        y[i] = x[i + 1];
    }
}
"""

SAFE = """
void scale(float *x, float *y, int n) {
    int i;
    for (i = 0; i < n; i++) {
        x[i] = x[i] * 2.0f;
    }
    for (i = 0; i < n; i++) {
        y[i] = x[i] + 1.0f;
    }
}
"""

ANTI_DEP = """
void over(float *x, float *y, int n) {
    int i;
    for (i = 0; i < n - 1; i++) {
        y[i] = x[i + 1];
    }
    for (i = 0; i < n - 1; i++) {
        x[i] = 0.0f;
    }
}
"""

SCALAR_CARRIED = """
void last(float *x, float *y, int n) {
    int i;
    float s;
    s = 0.0f;
    for (i = 0; i < n; i++) {
        s = x[i];
    }
    for (i = 0; i < n; i++) {
        y[i] = s;
    }
}
"""


def _top_loops(kernel):
    return [s for s in kernel.body.stmts if isinstance(s, For)]


def test_flow_dependence_refuses_fusion():
    kernel = parse_kernel(FLOW_DEP)
    fused = fuse_adjacent_loops(kernel)
    assert len(_top_loops(fused)) == 2, "x[i+1] flow dependence must block"


def test_anti_dependence_refuses_fusion():
    kernel = parse_kernel(ANTI_DEP)
    fused = fuse_adjacent_loops(kernel)
    assert len(_top_loops(fused)) == 2, "x[i+1] anti dependence must block"


def test_scalar_carried_refuses_fusion():
    kernel = parse_kernel(SCALAR_CARRIED)
    fused = fuse_adjacent_loops(kernel)
    assert len(_top_loops(fused)) == 2, "scalar carried from A to B must block"


def test_same_subscripts_still_fuse():
    kernel = parse_kernel(SAFE)
    fused = fuse_adjacent_loops(kernel)
    assert len(_top_loops(fused)) == 1, "identical x[i] accesses are fusable"
    # and fusion really preserved values
    n = 9
    x0 = np.arange(n, dtype=np.float64)
    ref = {"x": x0.copy(), "y": np.zeros(n), "n": n}
    out = {"x": x0.copy(), "y": np.zeros(n), "n": n}
    execute_kernel(kernel, ref)
    execute_kernel(fused, out)
    assert ref["x"].tobytes() == out["x"].tobytes()
    assert ref["y"].tobytes() == out["y"].tobytes()


def test_structural_fusion_was_wrong():
    """Executing the kernel the *old* `_fusable` would have produced
    shows it changed values — the dependence check is load-bearing."""
    n = 8
    x0 = np.arange(1, n + 1, dtype=np.float64)
    ref = {"x": x0.copy(), "y": np.zeros(n), "n": n}
    bad = {"x": x0.copy(), "y": np.zeros(n), "n": n}
    execute_kernel(parse_kernel(FLOW_DEP), ref)
    execute_kernel(parse_kernel(FLOW_DEP_FUSED), bad)
    assert ref["x"].tobytes() == bad["x"].tobytes()  # same writes to x...
    assert ref["y"].tobytes() != bad["y"].tobytes(), (
        "the old structural-only fusion happened to preserve values on "
        "the reproducer; the regression test is vacuous"
    )


def test_registered_pass_refuses_too():
    """The same guarantee holds through the registered fuse-loops pass
    (the path compilers and the conformance battery exercise)."""
    out = Pipeline("t", ("fuse-loops",)).run(
        parse_kernel(FLOW_DEP), PassContext()
    )
    assert len(_top_loops(out)) == 2
