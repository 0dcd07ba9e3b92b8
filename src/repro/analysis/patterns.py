"""Memory-access-pattern and operation-count extraction.

The performance model (:mod:`repro.perf`) needs, per kernel launch:

* how many arithmetic / memory operations one iteration executes,
* the *stride* of each array access with respect to the dimension that the
  compiler mapped to adjacent hardware lanes (coalescing on the GPU, unit
  vector stride on the MIC),
* estimated trip counts of sequential inner loops.

All of it derives statically from the IR, matching the paper's static-PTX
methodology (section IV-C).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from ..ir.expr import ArrayRef, BinOp, Call, Cast, Expr, Ternary, UnaryOp
from ..ir.stmt import Assign, Decl, For, If, KernelFunction, Stmt, While
from ..ir.visitors import writes_and_reads
from .affine import (
    LinearForm,
    coefficient_of,
    constant_value,
    evaluate,
    linearize,
)


class StrideKind(enum.Enum):
    """How an array subscript moves as the lane index advances by one."""

    UNIT = "unit"            # stride 1 elements: fully coalesced
    CONSTANT = "constant"    # fixed stride > 1 elements
    SYMBOLIC = "symbolic"    # stride is a size parameter (row pitch etc.)
    ZERO = "zero"            # invariant in the lane dimension (broadcast)
    INDIRECT = "indirect"    # a[b[i]] or non-polynomial subscript


@dataclass(frozen=True)
class Access:
    """One static array access, classified against a lane variable."""

    array: str
    is_write: bool
    stride: StrideKind
    stride_elems: int | None = None  # set for UNIT/CONSTANT

    @property
    def coalesced(self) -> bool:
        return self.stride in (StrideKind.UNIT, StrideKind.ZERO)


def classify_access(ref: ArrayRef, lane_var: str) -> Access:
    """Classify *ref* by its stride along *lane_var* (innermost dimension
    last: for multi-dimensional refs the last index is contiguous)."""
    # For rank>1 refs the *last* subscript is the contiguous one.
    contiguous_index = ref.indices[-1]
    form = linearize(contiguous_index)
    if form is None:
        return Access(ref.name, False, StrideKind.INDIRECT)
    cof = coefficient_of(form, lane_var)
    if cof is None:
        return Access(ref.name, False, StrideKind.INDIRECT)
    if not cof:
        # lane var may still appear in an outer (strided) dimension
        for outer in ref.indices[:-1]:
            outer_form = linearize(outer)
            if outer_form is None:
                return Access(ref.name, False, StrideKind.INDIRECT)
            outer_cof = coefficient_of(outer_form, lane_var)
            if outer_cof is None:
                return Access(ref.name, False, StrideKind.INDIRECT)
            if outer_cof:
                return Access(ref.name, False, StrideKind.SYMBOLIC)
        return Access(ref.name, False, StrideKind.ZERO, 0)
    stride = constant_value(cof)
    if stride is None:
        return Access(ref.name, False, StrideKind.SYMBOLIC)
    if abs(stride) == 1:
        return Access(ref.name, False, StrideKind.UNIT, stride)
    return Access(ref.name, False, StrideKind.CONSTANT, stride)


def access_patterns(stmt: Stmt, lane_var: str) -> list[Access]:
    """Classify every array access in *stmt* against *lane_var*."""
    writes, reads = writes_and_reads(stmt)
    out: list[Access] = []
    for ref in writes:
        base = classify_access(ref, lane_var)
        out.append(Access(base.array, True, base.stride, base.stride_elems))
    for ref in reads:
        out.append(classify_access(ref, lane_var))
    return out


def coalescing_fraction(stmt: Stmt, lane_var: str) -> float:
    """Fraction of static accesses that are coalesced along *lane_var*.

    1.0 means perfectly coalesced; 0.0 means every access is strided or
    indirect.  Used by the GPU bandwidth model.
    """
    accesses = access_patterns(stmt, lane_var)
    if not accesses:
        return 1.0
    good = sum(1 for a in accesses if a.coalesced)
    return good / len(accesses)


# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------


@dataclass
class OpCounts:
    """Static operation counts for one execution of a statement body."""

    flops_add: int = 0
    flops_mul: int = 0
    flops_div: int = 0
    flops_special: int = 0  # sqrt/exp/log/pow
    int_ops: int = 0
    compares: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.flops_add + other.flops_add,
            self.flops_mul + other.flops_mul,
            self.flops_div + other.flops_div,
            self.flops_special + other.flops_special,
            self.int_ops + other.int_ops,
            self.compares + other.compares,
            self.loads + other.loads,
            self.stores + other.stores,
            self.branches + other.branches,
        )

    def scaled(self, factor: float) -> "OpCounts":
        return OpCounts(
            *(int(round(getattr(self, f.name) * factor)) for f in
              self.__dataclass_fields__.values())  # type: ignore[attr-defined]
        )

    @property
    def total_flops(self) -> int:
        return self.flops_add + self.flops_mul + self.flops_div + self.flops_special

    @property
    def total_mem_ops(self) -> int:
        return self.loads + self.stores

    @property
    def total(self) -> int:
        return (
            self.total_flops + self.int_ops + self.compares + self.total_mem_ops
            + self.branches
        )


_SPECIAL_INTRINSICS = {"sqrt", "exp", "log", "pow"}


def _count_expr(expr: Expr, counts: OpCounts,
                seen_loads: set[str] | None = None) -> None:
    if isinstance(expr, ArrayRef):
        # register CSE: within one straight-line region (no intervening
        # loop back-edge) a repeated identical load costs nothing — this
        # is what makes unroll-and-jam cut real memory traffic (the jammed
        # copies share their broadcast operands, paper V-D1)
        key = str(expr)
        if seen_loads is not None and key in seen_loads:
            return
        if seen_loads is not None:
            seen_loads.add(key)
        counts.loads += 1
        # subscript arithmetic is integer work
        for index in expr.indices:
            _count_index(index, counts)
        return
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            counts.flops_add += 1
        elif expr.op == "*":
            counts.flops_mul += 1
        elif expr.op in ("/", "%"):
            counts.flops_div += 1
        elif expr.op in ("<", "<=", ">", ">=", "==", "!="):
            counts.compares += 1
        else:
            counts.int_ops += 1
        _count_expr(expr.lhs, counts, seen_loads)
        _count_expr(expr.rhs, counts, seen_loads)
        return
    if isinstance(expr, UnaryOp):
        counts.int_ops += 1
        _count_expr(expr.operand, counts, seen_loads)
        return
    if isinstance(expr, Call):
        if expr.func in _SPECIAL_INTRINSICS:
            counts.flops_special += 1
        else:
            counts.flops_add += 1  # min/max/abs class
        for arg in expr.args:
            _count_expr(arg, counts, seen_loads)
        return
    if isinstance(expr, Ternary):
        counts.branches += 1
        _count_expr(expr.cond, counts, seen_loads)
        _count_expr(expr.then, counts, seen_loads)
        _count_expr(expr.otherwise, counts, seen_loads)
        return
    if isinstance(expr, Cast):
        counts.int_ops += 1
        _count_expr(expr.operand, counts, seen_loads)
        return
    # literals and plain vars are free (register operands)


def _count_index(expr: Expr, counts: OpCounts) -> None:
    """Subscript arithmetic counts as integer ops, not flops."""
    if isinstance(expr, BinOp):
        counts.int_ops += 1
        _count_index(expr.lhs, counts)
        _count_index(expr.rhs, counts)
    elif isinstance(expr, UnaryOp):
        counts.int_ops += 1
        _count_index(expr.operand, counts)
    elif isinstance(expr, ArrayRef):
        counts.loads += 1
        for index in expr.indices:
            _count_index(index, counts)


#: ``OpCounts`` fields in declaration order; the lowered program works on
#: plain tuples in this order and builds one ``OpCounts`` per evaluation
_FIELDS = tuple(OpCounts.__dataclass_fields__)
_INT_OPS, _COMPARES, _BRANCHES = (
    _FIELDS.index(name) for name in ("int_ops", "compares", "branches")
)
_ZERO = (0,) * len(_FIELDS)


def _as_tuple(counts: OpCounts) -> tuple[int, ...]:
    return tuple(getattr(counts, name) for name in _FIELDS)


class _Const:
    """A sub-statement whose counts do not depend on the env."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]) -> None:
        self.counts = counts

    def eval(self, env: dict[str, int]) -> tuple[int, ...]:
        return self.counts


class _Seq:
    """A block with at least one env-dependent child: the static children
    are summed once, at lowering."""

    __slots__ = ("static", "parts")

    def __init__(self, static: tuple[int, ...], parts: list) -> None:
        self.static = static
        self.parts = tuple(parts)

    def eval(self, env: dict[str, int]) -> tuple[int, ...]:
        total = self.static
        for part in self.parts:
            total = tuple(map(operator.add, total, part.eval(env)))
        return total


class _Branch:
    """An ``If`` with an env-dependent arm; ``static`` holds the branch and
    the condition's counts."""

    __slots__ = ("static", "then", "otherwise", "weight")

    def __init__(self, static, then, otherwise, weight: float) -> None:
        self.static = static
        self.then = then
        self.otherwise = otherwise
        self.weight = weight

    def eval(self, env: dict[str, int]) -> tuple[int, ...]:
        return _merge_branch(self.static, self.then.eval(env),
                             self.otherwise.eval(env), self.weight)


class _Loop:
    """A ``For``: the only node whose counts depend on the env."""

    __slots__ = ("var", "forms", "body")

    def __init__(self, loop: For, body) -> None:
        self.var = loop.var
        self.forms = trip_forms(loop)
        self.body = body

    def eval(self, env: dict[str, int]) -> tuple[int, ...]:
        trips = trips_under(self.forms, env)
        if isinstance(self.body, _Const):
            body = self.body.counts
        else:
            # thread a representative midpoint value for the induction
            # variable so nested (triangular) bounds resolve: for the j in
            # [i, n) loops of LUD/GE the midpoint gives the right average
            # trip count
            lower, _, step = self.forms
            try:
                lo = evaluate(lower, env) if lower is not None else 0
            except KeyError:
                lo = 0
            inner_env = dict(env)
            inner_env[self.var] = lo + (trips // 2) * step
            body = self.body.eval(inner_env)
        counts = [count * trips for count in body]
        counts[_COMPARES] += trips
        counts[_INT_OPS] += trips  # induction increment
        counts[_BRANCHES] += trips
        return tuple(counts)


def _merge_branch(static, then, otherwise, weight: float) -> tuple[int, ...]:
    # SIMT divergence: a warp with lanes on both sides executes both
    # paths serially, so both branches are charged in full; a host CPU
    # (divergent=False) predicts and executes one path — charge the
    # average
    return tuple(
        base + int(weight * (a + b))
        for base, a, b in zip(static, then, otherwise)
    )


def _lower(stmt: Stmt, seen: set[str], divergent: bool):
    """Lower *stmt* to a count node; *seen* is the straight-line region's
    register-CSE set, threaded in execution order."""
    if isinstance(stmt, Assign):
        counts = OpCounts()
        if isinstance(stmt.target, ArrayRef):
            counts.stores += 1
            for index in stmt.target.indices:
                _count_index(index, counts)
            if stmt.op is not None:
                counts.loads += 1
                counts.flops_add += 1
        elif stmt.op is not None:
            counts.flops_add += 1
        _count_expr(stmt.value, counts, seen)
        return _Const(_as_tuple(counts))
    if isinstance(stmt, Decl):
        counts = OpCounts()
        if stmt.init is not None:
            _count_expr(stmt.init, counts, seen)
        return _Const(_as_tuple(counts))
    if isinstance(stmt, If):
        counts = OpCounts(branches=1)
        _count_expr(stmt.cond, counts, seen)
        then = _lower(stmt.then_body, seen, divergent)
        otherwise = (
            _lower(stmt.else_body, seen, divergent)
            if stmt.else_body is not None
            else _Const(_ZERO)
        )
        weight = 1.0 if divergent else 0.5
        if isinstance(then, _Const) and isinstance(otherwise, _Const):
            return _Const(_merge_branch(_as_tuple(counts), then.counts,
                                        otherwise.counts, weight))
        return _Branch(_as_tuple(counts), then, otherwise, weight)
    if isinstance(stmt, For):
        # CSE resets per iteration
        return _Loop(stmt, _lower(stmt.body, set(), divergent))
    if isinstance(stmt, While):
        return _lower(stmt.body, set(), divergent)
    # Block and Barrier
    static = _ZERO
    parts = []
    for child in stmt.children_stmts():
        node = _lower(child, seen, divergent)
        if isinstance(node, _Const):
            static = tuple(map(operator.add, static, node.counts))
        else:
            parts.append(node)
    if not parts:
        return _Const(static)
    if len(parts) == 1 and static == _ZERO:
        return parts[0]
    return _Seq(static, parts)


class OpProgram:
    """:func:`count_ops` over one statement, lowered once.

    Everything but loop trip counts is independent of the env: the
    register-CSE sets, every expression's counts, and every branch whose
    arms hold no loop are folded into constants at lowering.  What is left
    is a small tree over loops (and the blocks and branches around them)
    that calling the program evaluates under an env.
    """

    __slots__ = ("_root",)

    def __init__(self, stmt: Stmt, divergent: bool = True) -> None:
        self._root = _lower(stmt, set(), divergent)

    def __call__(self, loop_env: dict[str, int] | None = None) -> OpCounts:
        return OpCounts(*self._root.eval(loop_env or {}))


def count_ops(stmt: Stmt, loop_env: dict[str, int] | None = None,
              divergent: bool = True) -> OpCounts:
    """Statically count operations for one execution of *stmt*.

    Inner ``For`` loops multiply their body counts by the trip count
    evaluated in *loop_env* (falling back to a representative trip count of
    16 when the bound cannot be evaluated — documented heuristic).
    Identical loads within one straight-line region are counted once
    (register CSE); the set resets at every loop back-edge.  A caller that
    counts one statement under many envs keeps the :class:`OpProgram`.
    """
    return OpProgram(stmt, divergent)(loop_env)


DEFAULT_TRIP = 16


def trip_count(loop: For, env: dict[str, int] | None = None) -> int:
    """Evaluate the loop trip count under *env*; heuristic fallback when the
    bounds involve unknown symbols (a benchmark can override the fallback
    with an ``_default_trip`` entry — e.g. BFS passes its average degree
    for the data-dependent edge loops)."""
    return trips_under(trip_forms(loop), env or {})


#: a loop's linearized lower and upper bounds and its step
TripForms = tuple[LinearForm | None, LinearForm | None, int]


def trip_forms(loop: For) -> TripForms:
    """The env-independent part of :func:`trip_count`."""
    return linearize(loop.lower), linearize(loop.upper), loop.step


def trips_under(forms: TripForms, env: dict[str, int]) -> int:
    """:func:`trip_count` of a loop from its :func:`trip_forms`."""
    lower, upper, step = forms
    fallback = env.get("_default_trip", DEFAULT_TRIP)
    if lower is None or upper is None:
        return fallback
    try:
        lo = evaluate(lower, env)
        hi = evaluate(upper, env)
    except KeyError:
        return fallback
    if hi <= lo:
        return 0
    return (hi - lo + step - 1) // step
