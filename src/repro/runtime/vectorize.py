"""Vectorizing NumPy backend for the kernel executor.

:class:`_VectorCodeGen` subclasses the scalar code generator and, for each
loop, tries to lower the whole iteration space to array-at-a-time NumPy
statements; any loop it cannot prove safe falls back — *per loop* — to
the inherited scalar codegen, so the two backends always agree statement
for statement on the parts that are not vectorized.

Legality (see ``docs/EXECUTOR.md`` for the full rules):

* a loop whose body is straight-line — assignments, ``if``s, and
  *top-level* scalar declarations (no ``while``, barriers, or
  declarations inside an ``if``) — lowers to one lane per iteration;
* a two-level nest whose outer body holds top-level declarations,
  assignments and ``if``s around exactly one such loop, with inner bounds
  that are the same on every outer iteration, lowers to one row-major
  (outer x inner) lane grid (:meth:`_VectorCodeGen._try_grid`).  It is
  legal statically when the inner loop writes no array and the outer
  loop is ``PARALLEL_SNAPSHOT`` or proved independent; otherwise the
  generated code first checks that every cell the nest writes is read and
  written by one outer row only (``_vgrid_owned``).  An empty grid, one
  over :data:`GRID_LANES` lanes, or one whose check fails runs the
  per-row code (outer loop scalar, inner loop vectorized), which the
  generated function also holds; every other nest falls back per row at
  compile time (``nested-loop``, or ``ragged-nest`` when the inner bounds
  move with the outer loop);
* a top-level declaration is privatized per iteration: its name becomes a
  lane vector (or a loop-invariant scalar), guarded updates under a
  vector mask lower to ``np.where(mask, new, old)``, and the final
  lane's value is re-leaked as a Python scalar after the loop exactly as
  the scalar backend's block-scope-free ``for`` would leak it; masked
  updates must preserve the value's promotion kind, reads before the
  declaration are loop-carried and reject the loop;
* array references of any rank lower to NumPy fancy indexing — each
  subscript dimension is lowered independently and vector dimensions
  broadcast to the lane axis, so ``a[i][j]``-style affine gathers and
  scatters vectorize without linearization;
* ``SEQUENTIAL`` loops need an ``INDEPENDENT`` or ``REDUCTION`` verdict
  from :func:`repro.analysis.dependence.analyze_loop`; statement-at-a-time
  execution of an independent loop is observationally identical to
  iteration-at-a-time;
* ``PARALLEL_SNAPSHOT`` loops are always eligible: every read of a
  written array goes to the loop-entry snapshot, so statements cannot
  interfere through *reads* — and when several statements write the same
  array their stores are deferred into one iteration-major interleaved
  scatter (``_vstore_multi``) so overlapping writes land in the scalar
  loop's order; snapshot *copies* are only materialized for arrays whose
  reads could actually observe the loop's own stores
  (:func:`_snapshot_copies_needed`) — everything else reads live memory,
  which equals the loop-entry state by construction;
* loops containing *atomic* updates are never vectorized in any mode —
  the dependence analyzer excludes atomics from its write set, so its
  verdicts cannot vouch for them, and a compound atomic accumulates on
  live memory across iterations;
* ``REDUCTION_LAST_CHUNK`` loops are never vectorized — they exist to
  model a *broken* chunked reduction and their semantics are inherently
  iteration-ordered.

Bit-compatibility with the scalar backend is the design invariant, not an
aspiration: the lowering tracks the NEP-50 "weak scalar" promotion the
scalar backend gets from Python ints/floats (a *kind* lattice — weak int,
weak float, and the strong NumPy dtypes) and inserts explicit ``astype``
casts exactly where per-element execution would have converted, so each
array statement computes the same bits the scalar loop would.  Constructs
whose NumPy lowering is *not* bit-identical to the ``math``-module scalar
path (``exp``/``log``/``pow``, vector ``min``/``max``, bitwise ops) are
rejected rather than approximated.  Scalar reductions are recognized
(single ``acc += / -= / *=`` statement, float accumulator, accumulator
referenced nowhere else) and lowered to ``np.add.accumulate`` /
``np.multiply.accumulate``, whose documented semantics are the exact
left-to-right recurrence of the scalar loop — *not* ``np.sum``, whose
pairwise summation would change the bits.

Known, documented divergences are all on error paths: the scalar backend
raises for ``math.sqrt`` of a negative or ``float`` division by zero
where NumPy yields NaN/inf with a warning, and a mid-loop ``IndexError``
leaves partially-written arrays under the scalar backend but nothing
written under the vector one.  ``execute_kernel(..., backend="check")``
only compares runs that complete.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..analysis.dependence import Verdict, analyze_loop
from ..ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Cast,
    Expr,
    FloatLit,
    IntLit,
    Ternary,
    UnaryOp,
    Var,
)
from ..ir.stmt import Assign, Barrier, Block, Decl, For, If, Stmt, While
from ..ir.types import ArrayType, DType
from ..ir.visitors import writes_and_reads
from ..telemetry.registry import get_registry
from .executor import (
    _CALL_MAP,
    _CodeGen,
    ExecMode,
    ExecutionError,
    LoopSemantics,
    _pyname,
)


class _NotVectorizable(Exception):
    """Internal control flow: this loop must use the scalar fallback.

    ``reason`` is the fallback-histogram bucket the rejection lands in
    (``executor.fallback.<reason>``); the default covers the many
    promotion/representation rejections.
    """

    def __init__(self, message: str, reason: str = "dtype") -> None:
        super().__init__(message)
        self.reason = reason


# -- the kind lattice --------------------------------------------------------
#
# Scalar-backend values are Python scalars (weak under NEP 50) or NumPy
# scalars/array elements (strong).  A lowered value's *kind* records which,
# so binary ops can insert the cast per-element execution would perform.

KB = "bool"      # boolean (comparisons, logical ops)
KWI = "weak-int"   # Python int / int64-backed vector acting weakly
KI32 = "int32"
KI64 = "int64"
KFW = "weak-float"  # Python float / float64-backed vector acting weakly
KF32 = "float32"
KF64 = "float64"

_NPDT = {
    KWI: "np.int64",
    KI32: "np.int32",
    KI64: "np.int64",
    KFW: "np.float64",
    KF32: "np.float32",
    KF64: "np.float64",
}

#: storage representation; kinds sharing a backing never need a real cast
_BACKING = {
    KB: "b1", KWI: "i8", KI64: "i8", KI32: "i4",
    KFW: "f8", KF64: "f8", KF32: "f4",
}

_DTYPE_KIND = {
    DType.BOOL: KB,
    DType.INT32: KI32,
    DType.INT64: KI64,
    DType.FLOAT32: KF32,
    DType.FLOAT64: KF64,
}

_INT_KINDS = (KWI, KI32, KI64)
_NUMERIC_KINDS = (KWI, KI32, KI64, KFW, KF32, KF64)


def _pair(a: str, b: str) -> frozenset:
    return frozenset((a, b))


#: result kind of a binary arithmetic op, mirroring what NEP 50 gives the
#: scalar backend per element (weak operands adopt the strong side's
#: precision; int-meets-float among strong kinds promotes to float64).
_COMBINE = {
    _pair(KWI, KI32): KI32,
    _pair(KWI, KI64): KI64,
    _pair(KI32, KI64): KI64,
    _pair(KWI, KFW): KFW,
    _pair(KWI, KF32): KF32,
    _pair(KWI, KF64): KF64,
    _pair(KFW, KF32): KF32,
    _pair(KFW, KF64): KF64,
    _pair(KF32, KF64): KF64,
    _pair(KFW, KI32): KF64,
    _pair(KFW, KI64): KF64,
    _pair(KF32, KI32): KF64,
    _pair(KF32, KI64): KF64,
    _pair(KF64, KI32): KF64,
    _pair(KF64, KI64): KF64,
}


def _combine(a: str, b: str) -> str:
    if a == b:
        return a
    result = _COMBINE.get(_pair(a, b))
    if result is None:
        raise _NotVectorizable(f"cannot combine kinds {a}/{b}")
    return result


class _VVal(NamedTuple):
    """A lowered value: code string, promotion kind, vector-or-scalar."""

    code: str
    kind: str
    vector: bool


# -- runtime helpers injected into generated namespaces ----------------------


def _vidiv(a, b):
    """Elementwise C-style truncating integer division (``_idiv``)."""
    q = np.abs(a) // np.abs(b)
    return np.where((a >= 0) == (b >= 0), q, -q)


def _vimod(a, b):
    """Elementwise C-style remainder (sign of the dividend)."""
    return a - _vidiv(a, b) * b


def _lane_shape(lanes) -> tuple[int, ...]:
    """A loop's lane count, or a grid nest's ``(rows, cols)``, as a shape."""
    return lanes if isinstance(lanes, tuple) else (lanes,)


def _vstore(arr, idx, val, mask, lanes):
    """Masked scatter with the scalar loop's write order.

    NumPy fancy assignment applies duplicate indices in order, so the
    last (= highest iteration) value wins — exactly what the sequential
    snapshot-semantics loop produces.  A tuple *idx* is a rank > 1
    subscript: each dimension broadcasts to the lane axis and the store
    goes through multi-dimensional fancy indexing.  *lanes* is a loop's
    lane count or a grid nest's ``(rows, cols)``; a grid's lanes are
    flattened row-major, which is the scalar nest's iteration order.
    """
    shape = _lane_shape(lanes)
    dims = [np.broadcast_to(np.asarray(i), shape)
            for i in (idx if isinstance(idx, tuple) else (idx,))]
    val = np.broadcast_to(np.asarray(val), shape)
    if mask is not None:
        mask = np.broadcast_to(mask, shape)
        dims = [d[mask] for d in dims]
        val = val[mask]
    elif len(shape) > 1:
        dims = [d.reshape(-1) for d in dims]
        val = val.reshape(-1)
    arr[tuple(dims) if isinstance(idx, tuple) else dims[0]] = val


def _vstore_multi(arr, writes, lanes):
    """Scatter several statements' writes to one array in iteration-major
    order.

    When two statements write overlapping cells, the scalar loop's final
    value is the one from the highest (iteration, statement) pair in
    *iteration-major* order; per-statement scatters would impose
    statement-major order instead.  Interleaving all writes as a
    (lanes..., statements) grid and raveling row-major restores the
    scalar order, and fancy assignment's in-order duplicate handling does
    the rest.  Tuple indices (rank > 1 targets) interleave one grid per
    dimension.
    """
    if not writes:
        return
    shape = _lane_shape(lanes) + (len(writes),)
    first = writes[0][0]
    rank = len(first) if isinstance(first, tuple) else 1
    idxs = [np.empty(shape, dtype=np.int64) for _ in range(rank)]
    val = np.empty(shape, dtype=arr.dtype)
    keep = np.empty(shape, dtype=bool)
    for col, (i, v, m) in enumerate(writes):
        dims = i if isinstance(i, tuple) else (i,)
        for d, dim in enumerate(dims):
            idxs[d][..., col] = np.asarray(dim)
        val[..., col] = np.asarray(v)
        keep[..., col] = True if m is None else m
    flat = keep.ravel()
    if rank == 1:
        arr[idxs[0].ravel()[flat]] = val.ravel()[flat]
    else:
        arr[tuple(ix.ravel()[flat] for ix in idxs)] = val.ravel()[flat]


def _vtake(arr, mask, *dims):
    """Masked gather ``arr[dims]``.

    Inactive lanes may hold subscripts the scalar loop would never
    evaluate.  Only when some subscript is out of range are the vector
    subscripts clamped to cell 0 on inactive lanes (which broadcasts them
    to the mask's shape), so a read that raises is one the scalar loop
    makes too, and otherwise a subscript keeps its own shape: a value
    that varies by row only stays one value per row under a column mask.
    Inactive lanes' values are never used.
    """
    for dim, size in zip(dims, arr.shape):
        if isinstance(dim, np.ndarray) and dim.size and not (
            -size <= dim.min() and dim.max() < size
        ):
            dims = tuple(np.where(mask, d, 0) if isinstance(d, np.ndarray)
                         else d for d in dims)
            break
    return arr[dims]


def _vreduce(acc, terms, op, weak):
    """Fold *terms* into *acc* with the scalar loop's exact bits.

    ``np.add.accumulate`` / ``np.multiply.accumulate`` are documented as
    the left-to-right recurrence ``t = op(t, a[i])`` — unlike ``np.sum``
    (pairwise) they reassociate nothing.  The chain dtype replicates the
    per-step NEP 50 promotion: a weak (Python) accumulator adopts strong
    terms' dtype; a strong accumulator converts weak terms per step,
    which equals one up-front ``astype``.
    """
    terms = np.asarray(terms)
    if terms.size == 0:
        return acc
    if op == "-":
        terms = -terms  # a - b == a + (-b) exactly in IEEE 754
        op = "+"
    acc_weak = isinstance(acc, (int, float)) and not isinstance(acc, bool)
    if acc_weak and weak:
        dt = np.dtype(np.float64)  # pure-Python chain
    elif acc_weak:
        dt = terms.dtype
    elif weak:
        dt = np.asarray(acc).dtype
    else:
        dt = np.result_type(np.asarray(acc).dtype, terms.dtype)
    chain = np.empty(terms.size + 1, dtype=dt)
    chain[0] = acc
    chain[1:] = terms
    ufunc = np.add if op == "+" else np.multiply
    total = ufunc.accumulate(chain)[-1]
    # a fully-weak chain stays a Python float for downstream promotion
    return float(total) if acc_weak and weak else total


def _vreduce_rows(acc, terms, op, weak, grid):
    """:func:`_vreduce` for every row of a grid nest at once.

    Row ``r`` folds ``terms[r, :]`` into ``acc[r]`` (or into a scalar
    *acc* shared by all rows) with the same left-to-right recurrence, in
    one ``accumulate`` along the row axis, and the chain dtype follows the
    same per-step promotion.  An empty grid runs the per-row code, and
    the lowering admits only unmasked reductions whose promotion kind the
    terms cannot change (a float accumulator and float terms), so every
    row takes at least one step and the rule needs no weak-accumulator
    case: a weak accumulator only meets weak terms, and both hold
    float64.
    """
    rows, cols = grid
    terms = np.broadcast_to(terms, grid)
    if op == "-":
        terms = -terms  # a - b == a + (-b) exactly in IEEE 754
        op = "+"
    acc_dtype = np.asarray(acc).dtype
    dt = acc_dtype if weak else np.result_type(acc_dtype, terms.dtype)
    chain = np.empty((rows, cols + 1), dtype=dt)
    chain[:, 0] = acc
    chain[:, 1:] = terms
    ufunc = np.add if op == "+" else np.multiply
    return ufunc.accumulate(chain, axis=1)[:, -1]


#: the most lanes a nest may lower to as one grid; a larger nest runs its
#: per-row code (GE's fan2 at n = 512 is 511 x 512 = 261,632 lanes, while
#: one at paper scale, 8192^2 lanes, would need gigabytes of temporaries)
GRID_LANES = 1 << 20


def _vgrid_reason(rows, cols):
    """Why a grid nest of this size runs its per-row code, or ``None``."""
    if not rows or not cols:
        return "empty"
    if rows * cols > GRID_LANES:
        return "lane-budget"
    return None


def _vgrid_owned(arr, writes, reads, rows):
    """Is every cell of *arr* that the nest writes read and written by
    lanes of one outer row only?

    *writes* and *reads* are the nest's subscripts into *arr* over the
    grid (row axis first), masks ignored: a superset of the cells the
    nest touches, so a ``True`` answer holds for the real accesses too.
    Each written cell records the row that wrote it last; the answer is
    ``False`` as soon as any access meets a cell another row wrote, or a
    subscript falls outside the array.
    """
    owner = np.full(arr.shape, -1, dtype=np.int32)
    row = np.arange(rows, dtype=np.int32).reshape(rows, 1)
    try:
        for idx in writes:
            dims = idx if isinstance(idx, tuple) else (idx,)
            *cells, lanes = np.broadcast_arrays(*dims, row)
            owner[tuple(cells)] = lanes
        if any((owner[idx] != row).any() for idx in writes):
            return False
        for idx in reads:
            seen = owner[idx]
            if ((seen != row) & (seen != -1)).any():
                return False
    except IndexError:
        return False
    return True


def _vgrid_fallback(reason):
    """Count one run of a grid nest that took its per-row code."""
    get_registry().counter(f"executor.grid_fallback.{reason}").inc()


_VHELPERS = {
    "np": np,
    "_vidiv": _vidiv,
    "_vimod": _vimod,
    "_vstore": _vstore,
    "_vstore_multi": _vstore_multi,
    "_vtake": _vtake,
    "_vreduce": _vreduce,
    "_vreduce_rows": _vreduce_rows,
    "_vgrid_reason": _vgrid_reason,
    "_vgrid_owned": _vgrid_owned,
    "_vgrid_fallback": _vgrid_fallback,
}


def _collect_assigns(stmt: Stmt) -> list[Assign]:
    return [node for node in stmt.walk() if isinstance(node, Assign)]


def _body_shape_reason(stmt: Stmt, under_if: bool = False) -> str | None:
    """Why the body *shape* rules out vectorization (``None`` if it
    doesn't): assignments and nested ifs are fine anywhere, scalar
    declarations only at the top level (a declaration under an ``if``
    would privatize conditionally — the guarded-loop bucket), and loops,
    ``while``, and barriers never."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            reason = _body_shape_reason(child, under_if)
            if reason is not None:
                return reason
        return None
    if isinstance(stmt, If):
        reason = _body_shape_reason(stmt.then_body, True)
        if reason is not None:
            return reason
        if stmt.else_body is not None:
            return _body_shape_reason(stmt.else_body, True)
        return None
    if isinstance(stmt, Assign):
        return None
    if isinstance(stmt, Decl):
        return "guarded-loop" if under_if else None
    if isinstance(stmt, For):
        return "nested-loop"
    if isinstance(stmt, While):
        return "while-loop"
    if isinstance(stmt, Barrier):
        return "barrier"
    return "control-flow"


def _top_level_decls(body: Stmt) -> list[str]:
    """Names declared at the top level of *body*, in declaration order."""
    names: list[str] = []
    if isinstance(body, Block):
        for child in body.stmts:
            if isinstance(child, Decl):
                names.append(child.name)
            elif isinstance(child, Block):
                names.extend(_top_level_decls(child))
    return list(dict.fromkeys(names))


def _note_stored_reads(expr: Expr, stored: set[str],
                      needed: set[str]) -> None:
    for sub in expr.walk():
        if isinstance(sub, ArrayRef) and sub.name in stored:
            needed.add(sub.name)


def _scan_snapshot_reads(stmt: Stmt, deferred: set[str], stored: set[str],
                         needed: set[str]) -> None:
    """One step of :func:`_snapshot_copies_needed`'s linear scan: add to
    *needed* the arrays *stmt* reads after an earlier store, then add the
    arrays it stores (unless deferred) to *stored*."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _scan_snapshot_reads(child, deferred, stored, needed)
    elif isinstance(stmt, If):
        _note_stored_reads(stmt.cond, stored, needed)
        _scan_snapshot_reads(stmt.then_body, deferred, stored, needed)
        if stmt.else_body is not None:
            _scan_snapshot_reads(stmt.else_body, deferred, stored, needed)
    elif isinstance(stmt, For):
        # a grid nest's inner loop runs statement-at-a-time over the
        # whole grid, so its statements join the outer body's order
        _scan_snapshot_reads(stmt.body, deferred, stored, needed)
    elif isinstance(stmt, Decl):
        if stmt.init is not None:
            _note_stored_reads(stmt.init, stored, needed)
    elif isinstance(stmt, Assign):
        _note_stored_reads(stmt.value, stored, needed)
        if isinstance(stmt.target, ArrayRef):
            for index in stmt.target.indices:
                _note_stored_reads(index, stored, needed)
            name = stmt.target.name
            if stmt.op is not None and name in stored:
                needed.add(name)  # compound read of mutated state
            if name not in deferred:
                stored.add(name)


def _snapshot_copies_needed(body: Stmt, deferred: set[str]) -> set[str]:
    """Which written arrays actually need a snapshot *copy*.

    Statement-at-a-time execution evaluates each statement's reads before
    its own store, so a read only observes mutated state when an earlier
    statement already stored to that array.  Arrays whose writes are
    deferred (multi-writer scatter) never mutate until the loop's final
    ``_vstore_multi``, so live reads of them equal the loop-entry
    snapshot by construction.  Everything else can read the live array
    and skip the (potentially large) ``.copy()``.

    Conservative linear scan: ``if`` branches are treated as executing in
    emission order and a store anywhere marks the array stored from then
    on — over-approximating ``needed`` is always safe.
    """
    needed: set[str] = set()
    _scan_snapshot_reads(body, deferred, set(), needed)
    return needed


def _reads_scalar(stmt: Stmt, names: set[str]) -> bool:
    """Does any expression in *stmt* mention one of *names*?  (Assignment
    targets are writes, but their subscripts are reads; a ``Var`` target
    itself does not count.)"""
    for node in stmt.walk():
        exprs: list[Expr] = []
        if isinstance(node, Assign):
            exprs.append(node.value)
            if isinstance(node.target, ArrayRef):
                exprs.extend(node.target.indices)
        elif isinstance(node, If):
            exprs.append(node.cond)
        elif isinstance(node, Decl) and node.init is not None:
            exprs.append(node.init)
        for expr in exprs:
            for sub in expr.walk():
                if isinstance(sub, Var) and sub.name in names:
                    return True
    return False


def _dependence_reason(loop: For) -> str | None:
    """The fallback reason a ``SEQUENTIAL`` loop's dependence verdict
    gives, or ``None`` when the analyzer proves it independent."""
    report = analyze_loop(loop)
    if report.verdict in (Verdict.INDEPENDENT, Verdict.REDUCTION):
        return None
    if any("unanalyzable" in r for r in report.reasons):
        return "non-affine-gather"
    return "dependence"


def _flat_stmts(body: Stmt) -> list[Stmt]:
    """The top-level statements of *body*, nested blocks flattened."""
    if not isinstance(body, Block):
        return [body]
    stmts: list[Stmt] = []
    for child in body.stmts:
        stmts.extend(_flat_stmts(child))
    return stmts


def _grid_parts(outer: For) -> tuple[For, list[Stmt]] | None:
    """The inner loop and the other top-level statements of a nest that
    has the grid's shape: exactly one inner loop at the top level of the
    outer body, and straight-line code everywhere else."""
    stmts = _flat_stmts(outer.body)
    loops = [stmt for stmt in stmts if isinstance(stmt, For)]
    if len(loops) != 1 or _body_shape_reason(loops[0].body) is not None:
        return None
    others = [stmt for stmt in stmts if not isinstance(stmt, For)]
    if any(_body_shape_reason(stmt) is not None for stmt in others):
        return None
    return loops[0], others


def _grid_footprint(outer: For, written: list[str], pure: set[str]):
    """``{array: (write refs, read refs)}`` over every array the nest
    writes, for its ownership check; ``None`` when a subscript reads an
    array or a name in the nest (anything outside *pure*), which the
    check could not evaluate before the nest runs."""
    footprint: dict[str, tuple[list[ArrayRef], list[ArrayRef]]] = {
        name: ([], []) for name in written
    }
    writes, reads = writes_and_reads(outer.body)
    for refs, slot in ((writes, 0), (reads, 1)):
        for ref in refs:
            if ref.name not in footprint:
                continue
            for index in ref.indices:
                scalars, arrays = index.uses()
                if arrays or not pure.issuperset(scalars):
                    return None
            footprint[ref.name][slot].append(ref)
    return footprint


class _VectorCodeGen(_CodeGen):
    """Scalar codegen that opportunistically vectorizes eligible loops."""

    def __init__(self, kernel, semantics=None) -> None:
        super().__init__(kernel, semantics)
        self.vectorized_loops = 0
        self.fallback_loops = 0
        #: fallback histogram: reason bucket -> count (one per loop that
        #: fell back); lands in ``executor.fallback.<reason>`` counters
        self.fallback_reasons: dict[str, int] = {}
        #: loop nests lowered as one lane grid (``executor.grid``)
        self.grid_nests = 0
        self._param_scalars = {
            p.name for p in kernel.params if not isinstance(p.type, ArrayType)
        }
        #: scalar-loop variables in scope: guaranteed plain Python ints
        self._int_scalars: set[str] = set()
        self._reset_lanes()

    def _reset_lanes(self) -> None:
        """Forget the state of the loop (or nest) being vectorized."""
        #: vectorized loop variable -> the lane vector code it reads as
        self._lane_vars: dict[str, str] = {}
        #: the lane count (``iv.size``) or grid shape the store and
        #: reduction helpers broadcast to
        self._lanes = ""
        #: the grid nest whose outer body is being lowered: (inner loop,
        #: its semantics, loop variable -> grid lane code, grid shape)
        self._grid_nest: tuple[For, LoopSemantics, dict[str, str], str] | None = None
        #: inside a grid's inner body: the outer body's locals, which
        #: hold one value per row (a vector one reads as a column)
        self._row_locals: frozenset[str] | None = None
        self._reductions: dict[int, Assign] = {}
        #: arrays written by >1 statement of the current snapshot loop,
        #: mapped to the runtime list their writes are deferred into
        self._multi_writers: dict[str, str] = {}
        #: top-level Decl names of the loop being vectorized, and the
        #: statically-tracked value each holds at the current emission
        #: point (declaration order preserved for the post-loop leak)
        self._decl_names: list[str] = []
        self._vlocals: dict[str, _VVal] = {}
        #: >0 while emitting inside a Python-level (loop-invariant
        #: condition) branch: static local tracking must not diverge
        #: between the taken and untaken arm there
        self._py_branch_depth = 0

    # -- loop dispatch ------------------------------------------------------

    def _gen_for(self, loop: For) -> None:
        reason = "zero-step" if loop.step == 0 else self._try_vectorize(loop)
        self._int_scalars.add(loop.var)
        if reason is None:
            self.vectorized_loops += 1
            return
        self.fallback_loops += 1
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1
        super()._gen_for(loop)

    def _try_vectorize(self, loop: For) -> str | None:
        """Vectorize *loop* in place, or return the fallback reason."""
        semantics = self.semantics.get(loop.loop_id, LoopSemantics())
        if semantics.mode is ExecMode.REDUCTION_LAST_CHUNK:
            return "reduction-last-chunk"
        reason = _body_shape_reason(loop.body)
        try:
            if reason == "nested-loop":
                return self._try_grid(loop, semantics)
            if reason is not None:
                return reason
            decls = _top_level_decls(loop.body)
            if loop.var in decls:
                return "control-flow"  # local shadows the induction variable
            self._decl_names = decls
            reason = self._plan_scalar_writes(loop, semantics)
            if reason is None and semantics.mode is ExecMode.SEQUENTIAL:
                reason = _dependence_reason(loop)
            if reason is not None:
                return reason
            return self._emit_or_discard(self._emit_vector_loop, loop,
                                         semantics)
        finally:
            self._reset_lanes()

    def _emit_or_discard(self, emit, *args) -> str | None:
        """Run *emit*; if it finds the loop not vectorizable, drop what it
        emitted and return the fallback reason."""
        outer_lines = self.lines
        level = self.level
        snap_depth = len(self._snapshot_stack)
        self.lines = []
        try:
            emit(*args)
        except _NotVectorizable as exc:
            self.lines = outer_lines
            self.level = level
            del self._snapshot_stack[snap_depth:]
            return exc.reason
        outer_lines.extend(self.lines)
        self.lines = outer_lines
        return None

    def _plan_scalar_writes(self, loop: For,
                            semantics: LoopSemantics) -> str | None:
        """Vet every assignment target; record recognized reductions.

        Returns the fallback reason, or ``None`` when every target is an
        eligible array store, a loop-local, or a recognized reduction.
        """
        reductions: dict[str, Assign] = {}
        for assign in _collect_assigns(loop.body):
            if isinstance(assign.target, ArrayRef):
                # The dependence analyzer excludes atomic updates from its
                # write set (skip_atomic), so its verdicts say nothing about
                # them — and a compound atomic accumulates on live memory
                # across iterations (c[i] *= x with i invariant applies n
                # times).  Never vectorize a loop containing one.
                if assign.atomic:
                    return "atomics"
                continue
            if not isinstance(assign.target, Var):
                return "scalar-write"
            name = assign.target.name
            if name in self._decl_names:
                continue  # loop-local: privatized per iteration
            if name in reductions:
                return "multi-writer"  # two updates: interleaving differs
            if (
                assign.op not in ("+", "-", "*")
                or name == loop.var
                or self.dtypes.get(name) not in (DType.FLOAT32, DType.FLOAT64)
            ):
                return "scalar-write"
            reductions[name] = assign
        # accumulators must feed nothing inside the loop (not even their
        # own update), or prefix values would leak into other statements
        if reductions and _reads_scalar(loop.body, set(reductions)):
            return "scalar-write"
        self._reductions = {id(a): a for a in reductions.values()}
        return None

    # -- grid nests ---------------------------------------------------------

    def _try_grid(self, outer: For, osem: LoopSemantics) -> str | None:
        """Lower a two-level nest as one (outer x inner) lane grid, or
        return the reason its outer loop falls back per row.

        The generated code keeps the per-row lowering too, and takes it
        when the grid is empty, over :data:`GRID_LANES`, or (for a nest
        that is not statically legal) fails the ownership check.
        """
        parts = _grid_parts(outer)
        if parts is None:
            return "nested-loop"
        inner, stmts = parts
        isem = self.semantics.get(inner.loop_id, LoopSemantics())
        outer_decls = _top_level_decls(outer.body)
        inner_decls = _top_level_decls(inner.body)
        names = [outer.var, inner.var, *outer_decls, *inner_decls]
        # what the inner loop leaves behind differs from row to row in
        # the scalar nest, so the outer statements must not read it
        leftovers = {inner.var, *inner_decls}
        if (
            inner.step == 0
            or isem.mode is ExecMode.REDUCTION_LAST_CHUNK
            or len(set(names)) != len(names)
            or any(assign.atomic for assign in _collect_assigns(outer.body))
            or any(_reads_scalar(stmt, leftovers) for stmt in stmts)
            or any(
                isinstance(assign.target, Var)
                and assign.target.name not in outer_decls
                for stmt in stmts for assign in _collect_assigns(stmt)
            )
        ):
            return "nested-loop"
        moving = set(names)
        for bound in (inner.lower, inner.upper):
            scalars, arrays = bound.uses()
            if arrays or moving.intersection(scalars):
                return "ragged-nest"

        written = sorted({ref.name for ref in writes_and_reads(outer.body)[0]})
        static = not writes_and_reads(inner.body)[0] and (
            osem.mode is ExecMode.PARALLEL_SNAPSHOT
            or _dependence_reason(outer) is None
        )
        footprint = None
        if not static:
            pure = ({outer.var, inner.var} | self._int_scalars
                    | self._param_scalars) - set(outer_decls) - set(inner_decls)
            footprint = _grid_footprint(outer, written, pure)
            if footprint is None:
                return "nested-loop"
        if self._emit_or_discard(self._emit_grid, outer, osem, inner, isem,
                                 footprint) is not None:
            return "nested-loop"
        self.vectorized_loops += 1  # the inner loop; _gen_for counts the outer
        self.grid_nests += 1
        self._int_scalars.add(inner.var)
        return None

    def _emit_grid(self, outer: For, osem: LoopSemantics, inner: For,
                   isem: LoopSemantics, footprint) -> None:
        ivo, ivi = self._fresh("iv"), self._fresh("iv")
        why, grid = self._fresh("why"), self._fresh("grid")
        self._emit(
            f"{ivo} = np.arange(int({self.gen_expr(outer.lower)}), "
            f"int({self.gen_expr(outer.upper)}), {outer.step})"
        )
        # the scalar nest evaluates the inner bounds only inside a row
        self._emit(
            f"{ivi} = np.arange(int({self.gen_expr(inner.lower)}), "
            f"int({self.gen_expr(inner.upper)}), {inner.step}) "
            f"if {ivo}.size else {ivo}[:0]"
        )
        self._emit(f"{why} = _vgrid_reason({ivo}.size, {ivi}.size)")
        grid_vars = {outer.var: f"{ivo}[:, None]", inner.var: ivi}
        if footprint is not None:
            self._lane_vars = grid_vars
            checks = []
            for name, (writes, reads) in sorted(footprint.items()):
                wcodes = list(dict.fromkeys(map(self._subscript_code, writes)))
                rcodes = [code for code in
                          dict.fromkeys(map(self._subscript_code, reads))
                          if code not in wcodes]
                checks.append(
                    f"_vgrid_owned({_pyname(name)}, "
                    f"({''.join(c + ', ' for c in wcodes)}), "
                    f"({''.join(c + ', ' for c in rcodes)}), {ivo}.size)"
                )
            self._emit(f"if {why} is None and not ({' and '.join(checks)}):")
            self._emit(f"    {why} = 'ownership'")
        self._emit(f"if {why} is None:")
        self.level += 1
        self._emit(f"{grid} = ({ivo}.size, {ivi}.size)")
        self.dtypes[outer.var] = DType.INT32
        self._lane_vars = {outer.var: ivo}
        self._lanes = f"{ivo}.size"
        self._decl_names = _top_level_decls(outer.body)
        self._grid_nest = (inner, isem, grid_vars, grid)
        # a nest that passed the ownership check has disjoint rows, so
        # only a statically legal one needs the outer multi-writer scatter
        self._emit_lane_body(outer, osem, defer=footprint is None)
        self._emit_leaks(outer.var, ivo, "[-1]")
        self.level -= 1
        self._emit("else:")
        self.level += 1
        self._emit(f"_vgrid_fallback({why})")
        # the per-row code is the run-time escape of a loop already
        # counted as vectorized: its own loops count nothing
        counts = (self.vectorized_loops, self.fallback_loops,
                  dict(self.fallback_reasons), self.grid_nests)
        self._reset_lanes()
        self._int_scalars.add(outer.var)
        _CodeGen._gen_for(self, outer)
        (self.vectorized_loops, self.fallback_loops,
         self.fallback_reasons, self.grid_nests) = counts
        self.level -= 1

    def _emit_grid_inner(self) -> None:
        """Lower the grid nest's inner loop over every (row, column) lane,
        in the outer body's statement order."""
        assert self._grid_nest is not None
        inner, isem, grid_vars, grid = self._grid_nest
        saved = (self._lane_vars, self._lanes, self._decl_names,
                 self._vlocals, self._reductions)
        outer_decls = self._decl_names
        self._decl_names = _top_level_decls(inner.body)
        reason = self._plan_scalar_writes(inner, isem)
        if reason is None and isem.mode is ExecMode.SEQUENTIAL:
            reason = _dependence_reason(inner)
        if reason is not None:
            raise _NotVectorizable(f"inner loop: {reason}")
        accs = {assign.target.name for assign in self._reductions.values()}
        if not accs.issubset(outer_decls):
            raise _NotVectorizable("reduction into a non-local")
        self._lane_vars = grid_vars
        self._lanes = grid
        self._row_locals = frozenset(outer_decls)
        self._vlocals = dict(self._vlocals)
        self.dtypes[inner.var] = DType.INT32
        try:
            self._emit_lane_body(inner, isem, defer=True)
            self._emit_leaks(inner.var, grid_vars[inner.var], ".flat[-1]")
            reduced = {name: self._vlocals[name] for name in accs}
        finally:
            (self._lane_vars, self._lanes, self._decl_names,
             self._vlocals, self._reductions) = saved
            self._row_locals = None
        self._vlocals.update(reduced)

    def _subscript_code(self, ref: ArrayRef) -> str:
        """The lane code of *ref*'s subscript (a tuple for rank > 1)."""
        idxs = [self._vexpr(index, None) for index in ref.indices]
        if any(idx.kind not in _INT_KINDS for idx in idxs):
            raise _NotVectorizable("non-integer subscript")
        if len(idxs) == 1:
            return idxs[0].code
        return f"({', '.join(idx.code for idx in idxs)})"

    # -- emission -----------------------------------------------------------

    def _emit_vector_loop(self, loop: For, semantics: LoopSemantics) -> None:
        lower = self.gen_expr(loop.lower)
        upper = self.gen_expr(loop.upper)
        iv = self._fresh("iv")
        self._emit(f"{iv} = np.arange(int({lower}), int({upper}), {loop.step})")
        self.dtypes[loop.var] = DType.INT32
        self._lane_vars = {loop.var: iv}
        self._lanes = f"{iv}.size"

        # Loops with privatized locals guard the whole body on a nonempty
        # iteration space: the scalar loop never executes a declaration
        # when the range is empty, so the lowering must not define (or
        # clobber) the local names either.
        wrapped = bool(self._decl_names)
        if wrapped:
            self._emit(f"if {iv}.size:")
            self.level += 1
        self._emit_lane_body(loop, semantics, defer=True)
        if wrapped:
            self._emit_leaks(loop.var, iv, "[-1]")
            self.level -= 1
        else:
            self._emit(f"if {iv}.size:")
            self._emit(f"    {_pyname(loop.var)} = int({iv}[-1])")

    def _emit_lane_body(self, loop: For, semantics: LoopSemantics,
                        defer: bool) -> None:
        """Lower *loop*'s body over the current lanes: its snapshot frame,
        its statements and, with *defer*, its multi-writer scatters."""
        outer_writers = self._multi_writers
        self._multi_writers = {}
        pushed = False
        if semantics.mode is ExecMode.PARALLEL_SNAPSHOT:
            written = sorted(
                {ref.name for ref in writes_and_reads(loop.body)[0]}
            )
            # Snapshots make *reads* order-free, but when two statements
            # write overlapping cells the final value still depends on
            # write order (iteration-major in the scalar loop).  Defer
            # such arrays' writes and scatter them interleaved at the end.
            counts: dict[str, int] = {}
            for assign in _collect_assigns(loop.body) if defer else ():
                if isinstance(assign.target, ArrayRef):
                    name = assign.target.name
                    counts[name] = counts.get(name, 0) + 1
            for name in sorted(n for n, c in counts.items() if c > 1):
                deferred = self._fresh("wr")
                self._multi_writers[name] = deferred
                self._emit(f"{deferred} = []")
            # Only copy arrays whose reads could observe this loop's own
            # stores; everything else reads live memory, which equals the
            # loop-entry snapshot by construction.  On copy-dominated
            # kernels (e.g. GE's fan2 copies an N^2 matrix per outer
            # iteration) this is the difference between O(N^2) and O(N)
            # work per entry.
            needed = _snapshot_copies_needed(
                loop.body, set(self._multi_writers)
            )
            frame: dict[str, str] = {}
            for name in written:
                if name in needed:
                    snap = f"{self._fresh('snap')}_{name}"
                    self._emit(f"{snap} = {_pyname(name)}.copy()")
                    frame[name] = snap
                else:
                    frame[name] = _pyname(name)
            self._snapshot_stack.append(frame)
            pushed = True
        try:
            self._vstmt(loop.body, None)
            for name in sorted(self._multi_writers):
                self._emit(
                    f"_vstore_multi({_pyname(name)}, "
                    f"{self._multi_writers[name]}, {self._lanes})"
                )
        finally:
            if pushed:
                self._snapshot_stack.pop()
            self._multi_writers = outer_writers

    def _emit_leaks(self, var: str, iv: str, last: str) -> None:
        """Leak the final iterate, and the final lane of every vector
        local, as the scalar loop (which has no block scope) leaves them;
        *last* indexes a local's final lane.  Weak kinds re-become Python
        scalars so downstream promotion matches the scalar backend."""
        self._emit(f"{_pyname(var)} = int({iv}[-1])")
        for name in self._decl_names:
            final = self._vlocals.get(name)
            if final is None or not final.vector:
                continue  # non-vector locals already hold the value
            pyn = _pyname(name)
            if final.kind == KWI:
                self._emit(f"{pyn} = int({pyn}{last})")
            elif final.kind == KFW:
                self._emit(f"{pyn} = float({pyn}{last})")
            else:
                self._emit(f"{pyn} = {pyn}{last}")

    def _vstmt(self, stmt: Stmt, mask: str | None) -> None:
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._vstmt(child, mask)
            return
        if isinstance(stmt, If):
            self._vif(stmt, mask)
            return
        if isinstance(stmt, Decl):
            self._vdecl(stmt, mask)
            return
        if (isinstance(stmt, For) and self._grid_nest is not None
                and stmt is self._grid_nest[0]):
            self._emit_grid_inner()
            return
        if isinstance(stmt, Assign):
            if isinstance(stmt.target, Var):
                if stmt.target.name in self._decl_names:
                    self._emit_local_update(stmt, mask)
                else:
                    self._emit_reduction(stmt, mask)
            else:
                self._emit_store(stmt, mask)
            return
        raise _NotVectorizable(f"statement {type(stmt).__name__}",
                               reason="control-flow")

    def _vdecl(self, stmt: Decl, mask: str | None) -> None:
        # body-shape vetting only admits top-level declarations, which
        # execute unconditionally every iteration (mask is always None)
        if mask is not None or self._py_branch_depth:
            raise _NotVectorizable(f"guarded local {stmt.name!r}",
                                   reason="guarded-loop")
        self.dtypes[stmt.name] = stmt.type.dtype
        if stmt.init is not None:
            value = self._vexpr(stmt.init, None)
        else:
            # the scalar backend initializes with a weak Python zero,
            # ignoring the declared width (no cast on declaration)
            if stmt.type.dtype.is_integer:
                value = _VVal("0", KWI, False)
            else:
                value = _VVal("0.0", KFW, False)
        if value.kind == KB:
            # a Python bool and an np.bool_ lane promote differently
            raise _NotVectorizable(f"bool-valued local {stmt.name!r}")
        pyn = _pyname(stmt.name)
        self._emit(f"{pyn} = {value.code}")
        self._vlocals[stmt.name] = _VVal(pyn, value.kind, value.vector)

    def _emit_local_update(self, stmt: Assign, mask: str | None) -> None:
        assert isinstance(stmt.target, Var)
        name = stmt.target.name
        cur = self._vlocals.get(name)
        if cur is None:
            # the scalar backend would read/keep the *outer* binding here
            # on iteration one and the previous iteration's local after —
            # a loop-carried dependence through the name
            raise _NotVectorizable(
                f"write to local {name!r} before its declaration",
                reason="guarded-loop",
            )
        value = self._vexpr(stmt.value, mask)
        if stmt.op is not None:
            if stmt.op == "/":
                # the scalar backend's `x /= y` is Python true division,
                # which _vbinop's C-style _idiv routing would not match
                raise _NotVectorizable(f"compound / on local {name!r}")
            value = self._vbinop(stmt.op, cur, value, stmt.target, stmt.value)
        if value.kind == KB:
            raise _NotVectorizable(f"bool-valued local {name!r}")
        pyn = _pyname(name)
        if mask is not None:
            # masked lanes keep their previous value; the merged vector
            # must stay in one promotion kind or untaken lanes would
            # change representation mid-loop
            if value.kind != cur.kind:
                raise _NotVectorizable(
                    f"masked update changes kind of local {name!r}",
                    reason="guarded-loop",
                )
            self._emit(f"{pyn} = np.where({mask}, {value.code}, {pyn})")
            self._vlocals[name] = _VVal(pyn, cur.kind, True)
            return
        if self._py_branch_depth and (
            value.kind != cur.kind or value.vector != cur.vector
        ):
            # inside one arm of a Python-level branch: the static state
            # after the if must hold whichever arm ran
            raise _NotVectorizable(
                f"branch-divergent local {name!r}", reason="guarded-loop"
            )
        self._emit(f"{pyn} = {value.code}")
        self._vlocals[name] = _VVal(pyn, value.kind, value.vector)

    def _vif(self, stmt: If, mask: str | None) -> None:
        cond = self._vexpr(stmt.cond, mask)
        if cond.kind != KB:
            if cond.kind not in _NUMERIC_KINDS:
                raise _NotVectorizable("if condition kind")
            cond = _VVal(f"({cond.code} != 0)", KB, cond.vector)  # C truthiness
        has_else = stmt.else_body is not None and len(stmt.else_body) > 0
        if not cond.vector:
            # loop-invariant condition: one Python branch for all lanes
            self._py_branch_depth += 1
            self._emit(f"if {cond.code}:")
            self.level += 1
            self._vblock(stmt.then_body, mask)
            self.level -= 1
            if has_else:
                self._emit("else:")
                self.level += 1
                self._vblock(stmt.else_body, mask)
                self.level -= 1
            self._py_branch_depth -= 1
            return
        c = self._fresh("c")
        self._emit(f"{c} = {cond.code}")
        then_mask = c if mask is None else f"({mask} & {c})"
        self._vstmt(stmt.then_body, then_mask)
        if has_else:
            else_mask = f"(~{c})" if mask is None else f"({mask} & ~{c})"
            self._vstmt(stmt.else_body, else_mask)

    def _vblock(self, stmt: Stmt, mask: str | None) -> None:
        """Statement list under a Python-level ``if`` (needs a ``pass``
        when empty, unlike mask-guarded emission)."""
        if isinstance(stmt, Block) and not stmt.stmts:
            self._emit("pass")
            return
        self._vstmt(stmt, mask)

    def _emit_store(self, stmt: Assign, mask: str | None) -> None:
        target = stmt.target
        assert isinstance(target, ArrayRef)
        dtype = self.array_dtypes.get(target.name)
        if dtype is None:
            raise ExecutionError(
                f"unknown array {target.name!r} in kernel {self.kernel.name!r}"
            )
        arr = _pyname(target.name)  # stores always hit live memory
        idxs = [self._vexpr(index, mask) for index in target.indices]
        if any(idx.kind not in _INT_KINDS for idx in idxs):
            raise _NotVectorizable("non-integer subscript")
        value = self._vexpr(stmt.value, mask)
        if stmt.op is not None:
            # compound update: the scalar backend reads the snapshot for
            # non-atomic updates of snapshotted arrays, live memory else
            snap = self._snapshot_name(target.name)
            src = snap if (snap is not None and not stmt.atomic) else arr
            read = self._gather(src, idxs, mask, _DTYPE_KIND[dtype])
            value = self._vbinop(stmt.op, read, value, stmt.target, stmt.value)
        # rank > 1 stores pass the whole subscript tuple through; rank 1
        # keeps the bare index (same generated code as before)
        joined = ", ".join(idx.code for idx in idxs)
        idx_code = idxs[0].code if len(idxs) == 1 else f"({joined})"
        any_vec = any(idx.vector for idx in idxs)
        deferred = self._multi_writers.get(target.name)
        if deferred is not None:
            # multi-writer array: preserve iteration-major write order by
            # deferring to one interleaved _vstore_multi scatter
            self._emit(f"{deferred}.append(({idx_code}, {value.code}, {mask}))")
            return
        if not any_vec and not value.vector and mask is None:
            # every iteration writes the same cell with the same value
            self._emit(f"{arr}[{joined}] = {value.code}")
            return
        self._emit(
            f"_vstore({arr}, {idx_code}, {value.code}, {mask}, {self._lanes})"
        )

    def _emit_reduction(self, stmt: Assign, mask: str | None) -> None:
        if id(stmt) not in self._reductions:
            raise _NotVectorizable("unplanned scalar write",
                                   reason="scalar-write")
        assert isinstance(stmt.target, Var)
        acc = _pyname(stmt.target.name)
        value = self._vexpr(stmt.value, mask)
        if value.kind not in _NUMERIC_KINDS:
            raise _NotVectorizable("non-numeric reduction term")
        if self._row_locals is not None:
            self._emit_row_reduction(stmt.target.name, stmt.op, value, mask)
            return
        weak = value.kind in (KFW, KWI)
        terms = (
            value.code
            if value.vector
            else f"np.full({self._lanes}, {value.code})"
        )
        if mask is not None:
            terms = f"({terms})[{mask}]"
        self._emit(f"{acc} = _vreduce({acc}, {terms}, {stmt.op!r}, {weak})")

    def _emit_row_reduction(self, name: str, op: str, value: _VVal,
                            mask: str | None) -> None:
        """A grid's inner reduction into an outer-body local: one chain
        per row.  Only unmasked reductions whose terms cannot change the
        accumulator's promotion kind qualify (:func:`_vreduce_rows`)."""
        acc = self._vlocals.get(name)
        floats = (KFW, KF32, KF64)
        if (
            mask is not None
            or acc is None  # declared after the inner loop
            or (self._py_branch_depth and not acc.vector)
            or acc.kind not in floats
            or value.kind not in floats
            or _combine(acc.kind, value.kind) != acc.kind
        ):
            raise _NotVectorizable(f"grid reduction into {name!r}")
        pyn = _pyname(name)
        self._emit(
            f"{pyn} = _vreduce_rows({pyn}, {value.code}, {op!r}, "
            f"{value.kind == KFW}, {self._lanes})"
        )
        self._vlocals[name] = _VVal(pyn, acc.kind, True)

    # -- expression lowering ------------------------------------------------

    def _cast(self, value: _VVal, kind: str) -> str:
        if _BACKING[value.kind] == _BACKING[kind]:
            return value.code
        npdt = _NPDT[kind]
        if value.vector:
            return f"{value.code}.astype({npdt})"
        return f"{npdt}({value.code})"

    def _gather(self, arr: str, idxs: list[_VVal], mask: str | None,
                kind: str) -> _VVal:
        """Lower an N-dimensional element read.  All-scalar subscripts
        stay an element access; any vector dimension turns the whole read
        into fancy indexing, where vector dimensions broadcast against
        the lane axis and scalar dimensions broadcast along it."""
        if not any(idx.vector for idx in idxs):
            joined = ", ".join(idx.code for idx in idxs)
            return _VVal(f"{arr}[{joined}]", kind, False)
        joined = ", ".join(idx.code for idx in idxs)
        if mask is not None:
            return _VVal(f"_vtake({arr}, {mask}, {joined})", kind, True)
        return _VVal(f"{arr}[{joined}]", kind, True)

    def _vbinop(self, op: str, lv: _VVal, rv: _VVal,
                lexpr: Expr, rexpr: Expr) -> _VVal:
        vector = lv.vector or rv.vector
        if op in ("<", "<=", ">", ">=", "==", "!="):
            if KB in (lv.kind, rv.kind):
                if lv.kind != KB or rv.kind != KB or op not in ("==", "!="):
                    raise _NotVectorizable("comparison on bool")
                return _VVal(f"({lv.code} {op} {rv.code})", KB, vector)
            kind = _combine(lv.kind, rv.kind)
            return _VVal(
                f"({self._cast(lv, kind)} {op} {self._cast(rv, kind)})",
                KB, vector,
            )
        if op in ("&&", "||"):
            if lv.kind != KB or rv.kind != KB:
                raise _NotVectorizable("logical op on non-bool")
            if not vector:
                word = "and" if op == "&&" else "or"
                return _VVal(f"({lv.code} {word} {rv.code})", KB, False)
            sym = "&" if op == "&&" else "|"
            return _VVal(f"({lv.code} {sym} {rv.code})", KB, True)
        if op in ("&", "|", "^", "<<", ">>"):
            # Python's unbounded ints vs int64 lanes differ on overflow
            raise _NotVectorizable("bitwise op")
        if op in ("/", "%") and (
            self._dtype_of(lexpr).is_integer
            and self._dtype_of(rexpr).is_integer
        ):
            kind = _combine(lv.kind, rv.kind)
            if kind not in _INT_KINDS:
                raise _NotVectorizable("integer division on non-int kinds")
            lc, rc = self._cast(lv, kind), self._cast(rv, kind)
            if not vector:
                fn = "_idiv" if op == "/" else "_imod"
            else:
                fn = "_vidiv" if op == "/" else "_vimod"
            return _VVal(f"{fn}({lc}, {rc})", kind, vector)
        if op in ("+", "-", "*", "/", "%"):
            if op == "%":
                raise _NotVectorizable("float modulo")  # scalar uses % too
            kind = _combine(lv.kind, rv.kind)
            return _VVal(
                f"({self._cast(lv, kind)} {op} {self._cast(rv, kind)})",
                kind, vector,
            )
        raise _NotVectorizable(f"operator {op!r}")

    def _vexpr(self, expr: Expr, mask: str | None) -> _VVal:
        if isinstance(expr, IntLit):
            return _VVal(repr(expr.value), KWI, False)
        if isinstance(expr, FloatLit):
            return _VVal(repr(expr.value), KFW, False)
        if isinstance(expr, Var):
            name = expr.name
            lane = self._lane_vars.get(name)
            if lane is not None:
                return _VVal(lane, KWI, True)
            local = self._vlocals.get(name)
            if local is not None:
                code = _pyname(name)
                if local.vector and self._row_locals and name in self._row_locals:
                    code += "[:, None]"  # one value per row of the grid
                return _VVal(code, local.kind, local.vector)
            if name in self._decl_names or name in (self._row_locals or ()):
                # declared later in this body: iteration one would read
                # the outer binding, later iterations the previous
                # iteration's local — a loop-carried dependence
                raise _NotVectorizable(
                    f"read of local {name!r} before its declaration",
                    reason="guarded-loop",
                )
            if name in self._int_scalars:
                return _VVal(_pyname(name), KWI, False)
            if name in self._param_scalars:
                dtype = self.dtypes[name]
                kind = KWI if dtype.is_integer else KFW
                return _VVal(_pyname(name), kind, False)
            # locals declared in outer scopes may hold NumPy scalars whose
            # promotion strength we cannot know statically
            raise _NotVectorizable(f"scalar local {name!r}",
                                   reason="guarded-loop")
        if isinstance(expr, ArrayRef):
            dtype = self.array_dtypes.get(expr.name)
            if dtype is None:
                raise ExecutionError(
                    f"unknown array {expr.name!r} in kernel "
                    f"{self.kernel.name!r}"
                )
            snap = self._snapshot_name(expr.name)
            arr = snap if snap is not None else _pyname(expr.name)
            idxs = [self._vexpr(index, mask) for index in expr.indices]
            if any(idx.kind not in _INT_KINDS for idx in idxs):
                raise _NotVectorizable("non-integer subscript")
            return self._gather(arr, idxs, mask, _DTYPE_KIND[dtype])
        if isinstance(expr, BinOp):
            lv = self._vexpr(expr.lhs, mask)
            rv = self._vexpr(expr.rhs, mask)
            return self._vbinop(expr.op, lv, rv, expr.lhs, expr.rhs)
        if isinstance(expr, UnaryOp):
            operand = self._vexpr(expr.operand, mask)
            if expr.op == "!":
                if operand.kind != KB:
                    raise _NotVectorizable("! on non-bool")
                code = (
                    f"(~{operand.code})" if operand.vector
                    else f"(not {operand.code})"
                )
                return _VVal(code, KB, operand.vector)
            if operand.kind not in _NUMERIC_KINDS:
                raise _NotVectorizable("unary op on bool")
            return _VVal(
                f"({expr.op}{operand.code})", operand.kind, operand.vector
            )
        if isinstance(expr, Call):
            return self._vcall(expr, mask)
        if isinstance(expr, Ternary):
            return self._vternary(expr, mask)
        if isinstance(expr, Cast):
            operand = self._vexpr(expr.operand, mask)
            if expr.dtype.is_integer:
                if operand.vector:
                    # astype truncates toward zero, like C and int()
                    return _VVal(f"{operand.code}.astype(np.int64)", KWI, True)
                return _VVal(f"int({operand.code})", KWI, False)
            if operand.vector:
                return _VVal(f"{operand.code}.astype(np.float64)", KFW, True)
            return _VVal(f"float({operand.code})", KFW, False)
        raise _NotVectorizable(f"expression {type(expr).__name__}")

    def _vcall(self, expr: Call, mask: str | None) -> _VVal:
        helper = _CALL_MAP.get(expr.func)
        if helper is None:
            raise ExecutionError(
                f"no executor mapping for intrinsic {expr.func!r}"
            )
        args = [self._vexpr(a, mask) for a in expr.args]
        if any(a.kind not in _NUMERIC_KINDS for a in args):
            raise _NotVectorizable("intrinsic on bool")
        if not any(a.vector for a in args):
            # pure-scalar call: emit exactly what the scalar backend would
            kind = self._scalar_call_kind(expr.func, args)
            code = f"{helper}({', '.join(a.code for a in args)})"
            return _VVal(code, kind, False)
        if expr.func == "sqrt":
            (arg,) = args
            code = (
                arg.code if _BACKING[arg.kind] == "f8"
                else self._cast(arg, KFW)
            )
            # math.sqrt computes in double and returns a weak float
            return _VVal(f"np.sqrt({code})", KFW, True)
        if expr.func in ("fabs", "abs"):
            (arg,) = args
            return _VVal(f"np.abs({arg.code})", arg.kind, True)
        if expr.func in ("floor", "ceil"):
            (arg,) = args
            # math.floor/ceil return weak Python ints
            return _VVal(
                f"np.{expr.func}({arg.code}).astype(np.int64)", KWI, True
            )
        # exp/log/pow: NumPy and libm differ by ulps; min/max: Python's
        # pick-an-operand semantics (signed zeros, mixed kinds) don't map
        raise _NotVectorizable(f"intrinsic {expr.func!r} on vectors")

    def _scalar_call_kind(self, func: str, args: list[_VVal]) -> str:
        if func in ("sqrt", "exp", "log"):
            return KFW  # math.* return Python floats
        if func == "pow":
            if all(a.kind in _INT_KINDS for a in args):
                return KWI  # pow(int, int) is an int
            return KFW
        if func in ("floor", "ceil"):
            return KWI
        if func in ("fabs", "abs"):
            return args[0].kind
        # min/max return one operand unchanged: kind is only defined
        # when both agree
        kinds = {a.kind for a in args}
        if len(kinds) != 1:
            raise _NotVectorizable(f"{func} on mixed kinds")
        return kinds.pop()

    def _vternary(self, expr: Ternary, mask: str | None) -> _VVal:
        cond = self._vexpr(expr.cond, mask)
        if cond.kind != KB:
            if cond.kind not in _NUMERIC_KINDS:
                raise _NotVectorizable("ternary condition kind")
            cond = _VVal(f"({cond.code} != 0)", KB, cond.vector)
        if not cond.vector:
            then = self._vexpr(expr.then, mask)
            other = self._vexpr(expr.otherwise, mask)
            if then.kind != other.kind:
                raise _NotVectorizable("ternary branch kinds differ")
            return _VVal(
                f"({then.code} if {cond.code} else {other.code})",
                then.kind, then.vector or other.vector,
            )
        then_mask = (
            cond.code if mask is None else f"({mask} & {cond.code})"
        )
        else_mask = (
            f"(~{cond.code})" if mask is None
            else f"({mask} & ~{cond.code})"
        )
        then = self._vexpr(expr.then, then_mask)
        other = self._vexpr(expr.otherwise, else_mask)
        if then.kind != other.kind:
            raise _NotVectorizable("ternary branch kinds differ")
        return _VVal(
            f"np.where({cond.code}, {then.code}, {other.code})",
            then.kind, True,
        )
