"""Loop dependence analysis.

Decides, for each ``for`` loop, whether its iterations can run in parallel
(paper Step 1: where may ``#pragma acc loop independent`` be added?).  The
analysis is deliberately in the same class as what the 2014-era OpenACC
compilers performed: exact for affine subscripts, conservative for
everything else (indirect subscripts, unanalyzable strides).

Verdicts:

* ``INDEPENDENT`` — provably no loop-carried dependence.
* ``REDUCTION`` — independent except for recognized scalar reductions
  (``sum += ...``); parallelizable with a reduction clause.
* ``DEPENDENT`` — a loop-carried dependence was found or must be assumed.

The classic examples of paper Table II::

    for (i=2; i<5; i++) A[i] = A[i-1] + 1;   ->  DEPENDENT (distance 1)
    for (i=2; i<5; i++) A[i] = A[i] + 1;     ->  INDEPENDENT
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..ir.expr import ArrayRef
from ..ir.stmt import Assign, Block, Decl, For, If, KernelFunction, Stmt, While
from ..ir.visitors import writes_and_reads
from .affine import (
    LinearForm,
    coefficient_of,
    constant_value,
    difference,
    forms_equal,
    linearize,
    split_on,
    variables,
)


class Verdict(enum.Enum):
    INDEPENDENT = "independent"
    REDUCTION = "reduction"
    DEPENDENT = "dependent"


class PairClass(enum.Enum):
    """Classification of one (write, other-ref) subscript pair with respect
    to a candidate loop variable."""

    SAME = "same iteration only"          # identical subscripts, move with var
    BROADCAST = "read invariant in var"   # the other ref ignores the loop var
    INVARIANT = "write invariant in var"  # every iteration hits one element
    DISTANCE_CONST = "constant-offset distance"
    DISTANCE_SYMBOLIC = "symbolic-offset (disjointness unprovable)"
    MISMATCH = "different loop-var terms"
    NONLINEAR = "nonlinear in loop var"
    VARIANT_STRIDE = "stride varies across iterations"
    UNANALYZABLE = "indirect or non-polynomial subscript"


@dataclass(frozen=True)
class ReductionInfo:
    """A recognized scalar reduction inside the analyzed loop."""

    var: str
    op: str  # "+", "*", "min", "max"


@dataclass
class LoopDependenceReport:
    """The analysis result for one loop."""

    loop_var: str
    verdict: Verdict
    reasons: list[str] = field(default_factory=list)
    reductions: list[ReductionInfo] = field(default_factory=list)

    @property
    def parallelizable(self) -> bool:
        return self.verdict in (Verdict.INDEPENDENT, Verdict.REDUCTION)


def _loop_variant_vars(loop: For) -> set[str]:
    """Variables whose value differs across or within iterations of *loop*:
    the loop variable itself, nested loop variables, and scalars assigned in
    the body."""
    variant = {loop.var}
    for stmt in loop.body.walk():
        if isinstance(stmt, For):
            variant.add(stmt.var)
        elif isinstance(stmt, While):
            pass
        elif isinstance(stmt, Assign) and not isinstance(stmt.target, ArrayRef):
            variant.add(stmt.target.name)
        elif isinstance(stmt, Decl):
            variant.add(stmt.name)
    return variant


def _data_variant_scalars(loop: For) -> set[str]:
    """Scalars assigned inside the loop body whose *values* are
    data-dependent (everything assigned/declared except induction
    variables).  A subscript through such a scalar — BFS's
    ``cost[id]`` with ``id = edges[e]`` — is statically unanalyzable."""
    induction = {loop.var}
    scalars: set[str] = set()
    for stmt in loop.body.walk():
        if isinstance(stmt, For):
            induction.add(stmt.var)
        elif isinstance(stmt, Assign) and not isinstance(stmt.target, ArrayRef):
            scalars.add(stmt.target.name)
        elif isinstance(stmt, Decl):
            scalars.add(stmt.name)
    return scalars - induction


def _subscript_form(ref: ArrayRef) -> LinearForm | None:
    """Linearize a (possibly multi-dimensional) subscript into one form.

    Multi-dimensional refs are combined with distinct placeholder extents:
    we keep dimensions separate by tagging each dimension's variables; for
    dependence testing it suffices to require *all* dimensions to match, so
    we return a combined form with per-dimension name mangling.
    """
    combined: LinearForm = {}
    for dim, index in enumerate(ref.indices):
        form = linearize(index)
        if form is None:
            return None
        for mono, coeff in form.items():
            tagged = tuple(f"{name}" for name in mono)
            key = (f"@dim{dim}",) + tagged if len(ref.indices) > 1 else tagged
            combined[tuple(sorted(key))] = combined.get(tuple(sorted(key)), 0) + coeff
    return combined


def classify_pair(
    write: LinearForm | None,
    other: LinearForm | None,
    loop_var: str,
    variant: set[str],
    data_variant: set[str] = frozenset(),  # type: ignore[assignment]
) -> PairClass:
    """Classify a (write, other-ref) subscript pair against ``loop_var``.

    ``data_variant`` holds scalars with data-dependent values: subscripts
    mentioning them are as opaque as true indirect references.
    """
    if write is None or other is None:
        return PairClass.UNANALYZABLE
    if data_variant and (
        variables(write) & data_variant or variables(other) & data_variant
    ):
        return PairClass.UNANALYZABLE

    w_var_part, w_rest = split_on(write, loop_var)
    o_var_part, o_rest = split_on(other, loop_var)

    if not w_var_part:
        # the write does not move with the loop: every iteration hits the
        # same element(s)
        return PairClass.INVARIANT
    if not o_var_part:
        # the other ref does not move with the loop: a broadcast read (or a
        # fixed-cell ref paired with a moving write)
        return PairClass.BROADCAST
    if w_var_part != o_var_part:
        return PairClass.MISMATCH

    # identical loop-var parts: check the cofactor is loop-invariant and
    # non-degenerate (e.g. A[i*j] with j variant is not analyzable).
    cofactor = coefficient_of(write, loop_var)
    if cofactor is None:
        return PairClass.NONLINEAR
    if variables(cofactor) & (variant - {loop_var}):
        return PairClass.VARIANT_STRIDE

    delta = difference(w_rest, o_rest)
    if not delta:
        return PairClass.SAME
    if constant_value(delta) is not None:
        return PairClass.DISTANCE_CONST
    return PairClass.DISTANCE_SYMBOLIC


#: pair classes that are definitely safe for the exact analyzer
_SAFE_PAIRS = frozenset({PairClass.SAME})


def _pair_has_carried_dependence(
    write: LinearForm | None,
    other: LinearForm | None,
    loop_var: str,
    variant: set[str],
    data_variant: set[str] = frozenset(),  # type: ignore[assignment]
) -> str | None:
    """Return a reason string if (write, other) may be a loop-carried
    dependence on ``loop_var``, else None.  Exact analysis: anything not
    provably same-iteration is a dependence.  A broadcast *read* paired
    with a moving write is also conservatively flagged (the read range may
    overlap the written range)."""
    cls = classify_pair(write, other, loop_var, variant, data_variant)
    if cls in _SAFE_PAIRS:
        return None
    if cls is PairClass.UNANALYZABLE:
        return "unanalyzable subscript (indirect or non-polynomial)"
    if cls is PairClass.INVARIANT:
        return f"subscript invariant in {loop_var!r}: all iterations touch one element"
    if cls is PairClass.BROADCAST:
        return (
            f"read does not move with {loop_var!r}: may overlap the "
            "written range"
        )
    if cls is PairClass.MISMATCH:
        return (
            f"subscripts differ in their {loop_var!r} terms: "
            "cannot prove iterations touch disjoint elements"
        )
    if cls is PairClass.NONLINEAR:
        return f"subscript is nonlinear in {loop_var!r}"
    if cls is PairClass.VARIANT_STRIDE:
        return f"stride of {loop_var!r} varies across iterations"
    if cls is PairClass.DISTANCE_CONST:
        return "distance dependence: constant nonzero offset between subscripts"
    return "possible aliasing: symbolic offset between subscripts"


def _scalar_reduction_candidates(loop: For) -> tuple[list[ReductionInfo], list[str]]:
    """Classify scalar assignments in the loop body.

    Returns (recognized reductions, reasons for scalar-carried dependences).
    A scalar declared inside the body is private.  A scalar updated only via
    a single compound op (``s += e`` / ``s *= e``) whose RHS does not read
    other cross-iteration state is a reduction.  Any other cross-iteration
    scalar write is a dependence.
    """
    declared_inside: set[str] = set()
    compound_ops: dict[str, set[str]] = {}
    plain_writes: set[str] = set()

    def scan(stmt: Stmt, local_decls: set[str]) -> None:
        if isinstance(stmt, Block):
            inner = set(local_decls)
            for child in stmt.stmts:
                scan(child, inner)
                if isinstance(child, Decl):
                    inner.add(child.name)
                    declared_inside.add(child.name)
        elif isinstance(stmt, If):
            scan(stmt.then_body, local_decls)
            if stmt.else_body is not None:
                scan(stmt.else_body, local_decls)
        elif isinstance(stmt, (For, While)):
            scan(stmt.body, local_decls)
        elif isinstance(stmt, Assign) and not isinstance(stmt.target, ArrayRef):
            name = stmt.target.name
            if name in local_decls:
                return
            if stmt.op in ("+", "-", "*"):
                # subtraction accumulates into a "+"-class reduction
                compound_ops.setdefault(name, set()).add(
                    "+" if stmt.op in ("+", "-") else stmt.op
                )
            else:
                plain_writes.add(name)

    scan(loop.body, {loop.var})

    reductions: list[ReductionInfo] = []
    reasons: list[str] = []
    for name in sorted(plain_writes - declared_inside):
        reasons.append(f"scalar {name!r} is written across iterations")
    for name, ops in sorted(compound_ops.items()):
        if name in declared_inside or name in plain_writes:
            continue
        if len(ops) == 1:
            reductions.append(ReductionInfo(name, next(iter(ops))))
        else:
            reasons.append(f"scalar {name!r} is updated with mixed operators")
    return reductions, reasons


def _derived_induction_vars(loop: For) -> set[str]:
    """``loop.var`` plus every nested induction variable whose bounds are
    (transitively) anchored on it — the intra-tile counters a strip-mined
    nest introduces (``for (i = i_t; i < min(i_t+T, n); ...)``).  A write
    subscripted by such a variable *moves* with the outer tile loop even
    though ``loop.var`` itself never appears in the subscript."""
    from ..ir.expr import free_vars

    derived = {loop.var}
    changed = True
    while changed:
        changed = False
        for stmt in loop.body.walk():
            if isinstance(stmt, For) and stmt.var not in derived:
                anchors = free_vars(stmt.lower) | free_vars(stmt.upper)
                if anchors & derived:
                    derived.add(stmt.var)
                    changed = True
    return derived


def has_opaque_or_invariant_writes(loop: For) -> bool:
    """True when some array *write* of the loop has a subscript that is
    indirect / data-dependent (``cost[id]``) or invariant in the loop
    variable (``stop[0] = 1``).

    This is the paper's "complex loop" notion for PGI: the compiler
    ignores a user ``independent`` clause on such loops (V-C1), because a
    write it cannot place (or that definitely collides) risks wrong
    results.  Loops whose writes are affine-and-moving are accepted even
    when the *reads* are indirect.  "Moving" includes subscripts through
    a tile-derived inner counter (``unew[i*nx+j]`` under ``i = i_t..``):
    the write region is anchored on the outer loop variable through the
    inner loop's bounds.
    """
    data_variant = _data_variant_scalars(loop)
    derived = _derived_induction_vars(loop)
    writes, _ = writes_and_reads(loop.body, skip_atomic=True)
    for ref in writes:
        form = _subscript_form(ref)
        if form is None or variables(form) & data_variant:
            return True
        if not (variables(form) & derived):
            return True
    return False


def loop_pair_classes(loop: For) -> list[tuple[str, PairClass]]:
    """All (array, PairClass) classifications for *loop* — the raw material
    for alternative parallelization policies (PGI's optimistic analyzer)."""
    variant = _loop_variant_vars(loop)
    data_variant = _data_variant_scalars(loop)
    writes, reads = writes_and_reads(loop.body, skip_atomic=True)
    out: list[tuple[str, PairClass]] = []
    for write in writes:
        write_form = _subscript_form(write)
        for other in writes + reads:
            if other.name != write.name:
                continue
            out.append(
                (
                    write.name,
                    classify_pair(
                        write_form, _subscript_form(other), loop.var, variant,
                        data_variant,
                    ),
                )
            )
    return out


def analyze_loop(loop: For) -> LoopDependenceReport:
    """Analyze one loop for loop-carried dependences.

    Atomic compound updates (``#pragma acc atomic``) are race-free by
    construction and are excluded from the write set."""
    variant = _loop_variant_vars(loop)
    data_variant = _data_variant_scalars(loop)
    writes, reads = writes_and_reads(loop.body, skip_atomic=True)

    reasons: list[str] = []
    for write in writes:
        write_form = _subscript_form(write)
        for other in writes + reads:
            if other.name != write.name:
                continue
            reason = _pair_has_carried_dependence(
                write_form, _subscript_form(other), loop.var, variant,
                data_variant,
            )
            if reason is not None:
                entry = f"array {write.name!r}: {reason}"
                if entry not in reasons:
                    reasons.append(entry)

    reductions, scalar_reasons = _scalar_reduction_candidates(loop)
    reasons.extend(scalar_reasons)

    if reasons:
        return LoopDependenceReport(loop.var, Verdict.DEPENDENT, reasons, reductions)
    if reductions:
        return LoopDependenceReport(loop.var, Verdict.REDUCTION, [], reductions)
    return LoopDependenceReport(loop.var, Verdict.INDEPENDENT)


def analyze_kernel(kernel: KernelFunction) -> dict[int, LoopDependenceReport]:
    """Analyze every loop of *kernel*; keys are ``For.loop_id``."""
    return {loop.loop_id: analyze_loop(loop) for loop in kernel.loops()}


def parallelizable_loops(kernel: KernelFunction) -> list[For]:
    """Loops whose iterations can safely run in parallel."""
    reports = analyze_kernel(kernel)
    return [loop for loop in kernel.loops() if reports[loop.loop_id].parallelizable]
