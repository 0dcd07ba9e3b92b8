"""Functional execution of IR kernels over NumPy buffers.

The executor turns a kernel into a Python function (source generation +
``exec``) and runs it on concrete arrays.  It is the *semantic ground
truth* of the simulated tool-chain: every benchmark validates its compiled
versions against this executor, and this executor against a vectorized
NumPy reference.

Three per-loop execution semantics are supported:

* ``SEQUENTIAL`` — plain C semantics.
* ``PARALLEL_SNAPSHOT`` — all iterations logically start from the same
  memory state (reads of arrays the loop writes go to a snapshot taken at
  loop entry).  For a genuinely independent loop this equals sequential
  execution; for a dependent loop wrongly executed in parallel it produces
  the wrong answer a real device race would — deterministically.
* ``REDUCTION_LAST_CHUNK`` — emulates a *broken* parallel reduction with
  lost updates: the iteration range is split into chunks and only the last
  chunk's contribution survives.  This is how we reproduce "the CAPS
  version ... even cannot get the correct results on MIC" (paper V-D2).

Two execution *backends* share those semantics (see ``docs/EXECUTOR.md``):

* ``scalar`` — the loop-at-a-time Python interpretation below; the
  reference semantics.
* ``vector`` — :mod:`repro.runtime.vectorize` lowers vectorizable loops
  to whole-array NumPy statements and falls back to scalar codegen
  per-loop; results are bit-compatible with ``scalar``.

``check`` runs both and raises on any bitwise output difference.
Compiled functions are memoized in a process-wide cache keyed on
``(kernel fingerprint, semantics, backend)`` so repeated executions stop
paying source generation + ``exec``; ``executor.cache_hit``,
``executor.vectorized`` and ``executor.fallback`` counters land in
:func:`repro.telemetry.get_registry`.
"""

from __future__ import annotations

import enum
import keyword
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..service.cache import SingleFlight
from ..telemetry.registry import get_registry
from ..telemetry.spans import get_tracer

from ..ir.directives import AccLoop
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
from ..ir.stmt import (
    Assign,
    Barrier,
    Block,
    Decl,
    For,
    If,
    KernelFunction,
    Stmt,
    While,
)
from ..ir.types import ArrayType, DType
from ..ir.visitors import writes_and_reads


class ExecMode(enum.Enum):
    SEQUENTIAL = "sequential"
    PARALLEL_SNAPSHOT = "parallel-snapshot"
    REDUCTION_LAST_CHUNK = "reduction-last-chunk"


@dataclass(frozen=True)
class LoopSemantics:
    mode: ExecMode = ExecMode.SEQUENTIAL
    chunks: int = 4  # for REDUCTION_LAST_CHUNK


class ExecutionError(RuntimeError):
    """Raised when a kernel cannot be executed (bad args, codegen hole)."""


def _idiv(a: int, b: int) -> int:
    """C-style truncating integer division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _imod(a: int, b: int) -> int:
    """C-style remainder (sign of the dividend)."""
    return a - _idiv(a, b) * b


_HELPERS = {
    "_idiv": _idiv,
    "_imod": _imod,
    "_sqrt": math.sqrt,
    "_exp": math.exp,
    "_log": math.log,
    "_pow": pow,
    "_floor": math.floor,
    "_ceil": math.ceil,
    "_abs": abs,
    "_min": min,
    "_max": max,
}

def _pyname(name: str) -> str:
    """Mangle C identifiers that collide with Python keywords (``in``,
    ``while``-style parameter names are legal mini-C)."""
    return name + "__kw" if keyword.iskeyword(name) else name


_CALL_MAP = {
    "sqrt": "_sqrt",
    "exp": "_exp",
    "log": "_log",
    "pow": "_pow",
    "fabs": "_abs",
    "abs": "_abs",
    "fmin": "_min",
    "min": "_min",
    "fmax": "_max",
    "max": "_max",
    "floor": "_floor",
    "ceil": "_ceil",
}


class _CodeGen:
    """Generates the Python source of one kernel function."""

    def __init__(
        self,
        kernel: KernelFunction,
        semantics: dict[int, LoopSemantics] | None = None,
    ) -> None:
        self.kernel = kernel
        self.semantics = semantics or {}
        self.lines: list[str] = []
        self.level = 1
        self.dtypes: dict[str, DType] = {}
        self.array_dtypes: dict[str, DType] = {}
        # one dict per active PARALLEL_SNAPSHOT frame: array -> snapshot name
        self._snapshot_stack: list[dict[str, str]] = []
        self._tmp = 0
        for param in kernel.params:
            if isinstance(param.type, ArrayType):
                self.array_dtypes[param.name] = param.type.dtype
            else:
                self.dtypes[param.name] = param.type.dtype

    # -- emit helpers -------------------------------------------------------

    def _emit(self, text: str) -> None:
        self.lines.append("    " * self.level + text)

    def _fresh(self, prefix: str) -> str:
        self._tmp += 1
        return f"_{prefix}{self._tmp}"

    # -- expressions --------------------------------------------------------

    def _dtype_of(self, expr: Expr) -> DType:
        if isinstance(expr, IntLit):
            return expr.dtype
        if isinstance(expr, FloatLit):
            return expr.dtype
        if isinstance(expr, Var):
            dtype = self.dtypes.get(expr.name)
            if dtype is None:
                # a silent INT32 default here would route float division
                # of undeclared scalars through _idiv
                raise ExecutionError(
                    f"unknown scalar {expr.name!r}: not a parameter, "
                    f"declaration, or loop variable of kernel "
                    f"{self.kernel.name!r}"
                )
            return dtype
        if isinstance(expr, ArrayRef):
            dtype = self.array_dtypes.get(expr.name)
            if dtype is None:
                raise ExecutionError(
                    f"unknown array {expr.name!r} in kernel "
                    f"{self.kernel.name!r}"
                )
            return dtype
        if isinstance(expr, BinOp):
            if expr.op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
                return DType.BOOL
            from ..ir.types import promote

            return promote(self._dtype_of(expr.lhs), self._dtype_of(expr.rhs))
        if isinstance(expr, UnaryOp):
            return DType.BOOL if expr.op == "!" else self._dtype_of(expr.operand)
        if isinstance(expr, Call):
            if expr.func in ("min", "max", "abs"):
                return self._dtype_of(expr.args[0])
            return DType.FLOAT64
        if isinstance(expr, Ternary):
            from ..ir.types import promote

            return promote(self._dtype_of(expr.then), self._dtype_of(expr.otherwise))
        if isinstance(expr, Cast):
            return expr.dtype
        raise ExecutionError(f"cannot type {type(expr).__name__}")

    def _snapshot_name(self, array: str) -> str | None:
        # innermost frame wins: an inner parallel loop snapshots the state
        # at *its* entry, not the outer loop's
        for frame in reversed(self._snapshot_stack):
            if array in frame:
                return frame[array]
        return None

    def _push_snapshots(self, written: list[str]) -> dict[str, str]:
        """Emit loop-entry copies of *written* arrays under frame-unique
        names and push the frame (names must not collide across nesting
        levels: a shared ``_snap_{array}`` lets an inner loop clobber the
        outer loop's snapshot)."""
        frame = {name: f"{self._fresh('snap')}_{name}" for name in written}
        for name, snap in frame.items():
            self._emit(f"{snap} = {_pyname(name)}.copy()")
        self._snapshot_stack.append(frame)
        return frame

    def gen_expr(self, expr: Expr, as_store_target: bool = False) -> str:
        if isinstance(expr, IntLit):
            return repr(expr.value)
        if isinstance(expr, FloatLit):
            return repr(expr.value)
        if isinstance(expr, Var):
            return _pyname(expr.name)
        if isinstance(expr, ArrayRef):
            name = expr.name
            if not as_store_target:
                snap = self._snapshot_name(name)
                if snap is not None:
                    name = snap
            name = _pyname(name) if not name.startswith("_snap") else name
            index = ", ".join(self.gen_expr(i) for i in expr.indices)
            return f"{name}[{index}]"
        if isinstance(expr, BinOp):
            lhs = self.gen_expr(expr.lhs)
            rhs = self.gen_expr(expr.rhs)
            if expr.op == "/" and (
                self._dtype_of(expr.lhs).is_integer
                and self._dtype_of(expr.rhs).is_integer
            ):
                return f"_idiv({lhs}, {rhs})"
            if expr.op == "%" and (
                self._dtype_of(expr.lhs).is_integer
                and self._dtype_of(expr.rhs).is_integer
            ):
                return f"_imod({lhs}, {rhs})"
            op = {"&&": "and", "||": "or"}.get(expr.op, expr.op)
            return f"({lhs} {op} {rhs})"
        if isinstance(expr, UnaryOp):
            operand = self.gen_expr(expr.operand)
            if expr.op == "!":
                return f"(not {operand})"
            return f"({expr.op}{operand})"
        if isinstance(expr, Call):
            func = _CALL_MAP.get(expr.func)
            if func is None:
                raise ExecutionError(f"no executor mapping for intrinsic {expr.func!r}")
            args = ", ".join(self.gen_expr(a) for a in expr.args)
            return f"{func}({args})"
        if isinstance(expr, Ternary):
            return (
                f"({self.gen_expr(expr.then)} if {self.gen_expr(expr.cond)} "
                f"else {self.gen_expr(expr.otherwise)})"
            )
        if isinstance(expr, Cast):
            inner = self.gen_expr(expr.operand)
            return f"int({inner})" if expr.dtype.is_integer else f"float({inner})"
        raise ExecutionError(f"cannot generate {type(expr).__name__}")

    # -- statements ---------------------------------------------------------

    def gen_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            if not stmt.stmts:
                self._emit("pass")
            for child in stmt.stmts:
                self.gen_stmt(child)
            return
        if isinstance(stmt, Decl):
            self.dtypes[stmt.name] = stmt.type.dtype
            if stmt.init is not None:
                self._emit(f"{_pyname(stmt.name)} = {self.gen_expr(stmt.init)}")
            else:
                zero = "0" if stmt.type.dtype.is_integer else "0.0"
                self._emit(f"{_pyname(stmt.name)} = {zero}")
            return
        if isinstance(stmt, Assign):
            target = self.gen_expr(stmt.target, as_store_target=True)
            value = self.gen_expr(stmt.value)
            if stmt.op is None:
                self._emit(f"{target} = {value}")
            elif (
                isinstance(stmt.target, ArrayRef)
                and not stmt.atomic  # atomics serialize on live memory
                and self._snapshot_name(stmt.target.name)
            ):
                # compound update under snapshot semantics: read the snapshot
                read = self.gen_expr(stmt.target)  # snapshot read
                self._emit(f"{target} = {read} {stmt.op} ({value})")
            else:
                self._emit(f"{target} {stmt.op}= {value}")
            return
        if isinstance(stmt, If):
            self._emit(f"if {self.gen_expr(stmt.cond)}:")
            self.level += 1
            self.gen_stmt(stmt.then_body)
            self.level -= 1
            if stmt.else_body is not None and len(stmt.else_body) > 0:
                self._emit("else:")
                self.level += 1
                self.gen_stmt(stmt.else_body)
                self.level -= 1
            return
        if isinstance(stmt, For):
            self._gen_for(stmt)
            return
        if isinstance(stmt, While):
            self._emit(f"while {self.gen_expr(stmt.cond)}:")
            self.level += 1
            self.gen_stmt(stmt.body)
            self.level -= 1
            return
        if isinstance(stmt, Barrier):
            self._emit("pass  # barrier")
            return
        raise ExecutionError(f"cannot execute {type(stmt).__name__}")

    def _gen_for(self, loop: For) -> None:
        if loop.step == 0:
            raise ExecutionError(
                f"loop over {loop.var!r} in kernel {self.kernel.name!r} "
                f"has step 0 (would never terminate)"
            )
        self.dtypes[loop.var] = DType.INT32
        semantics = self.semantics.get(loop.loop_id, LoopSemantics())
        lower = self.gen_expr(loop.lower)
        upper = self.gen_expr(loop.upper)

        if semantics.mode is ExecMode.SEQUENTIAL:
            self._emit(
                f"for {_pyname(loop.var)} in range(int({lower}), int({upper}), {loop.step}):"
            )
            self.level += 1
            self.gen_stmt(loop.body)
            self.level -= 1
            return

        if semantics.mode is ExecMode.PARALLEL_SNAPSHOT:
            written = sorted({ref.name for ref in writes_and_reads(loop.body)[0]})
            self._push_snapshots(written)
            self._emit(
                f"for {_pyname(loop.var)} in range(int({lower}), int({upper}), {loop.step}):"
            )
            self.level += 1
            self.gen_stmt(loop.body)
            self.level -= 1
            self._snapshot_stack.pop()
            return

        if semantics.mode is ExecMode.REDUCTION_LAST_CHUNK:
            length = self._fresh("len")
            chunk = self._fresh("chunk")
            start = self._fresh("start")
            # trip count: ceil((upper - lower) / step), clamped at 0.
            # ceil(x/y) == -(-x // y) under Python floor division for
            # either sign of y, so this is exact for negative and
            # non-unit steps too (covered by tests).
            self._emit(f"{length} = max(0, -(-(int({upper}) - int({lower})) // {loop.step}))")
            self._emit(f"{chunk} = -(-{length} // {semantics.chunks})")
            # first iterate of the last ceil(length/chunks)-sized chunk
            self._emit(
                f"{start} = int({lower}) + max(0, {length} - {chunk}) * {loop.step}"
            )
            self._emit(
                f"for {_pyname(loop.var)} in range({start}, int({upper}), "
                f"{loop.step}):"
            )
            self.level += 1
            self.gen_stmt(loop.body)
            self.level -= 1
            return

        raise ExecutionError(f"unknown execution mode {semantics.mode}")

    # -- driver -------------------------------------------------------------

    def source(self) -> str:
        params = ", ".join(_pyname(p.name) for p in self.kernel.params)
        header = f"def _kernel({params}):"
        self.gen_stmt(self.kernel.body)
        body = self.lines or ["    pass"]
        return "\n".join([header, *body])


#: execution backends: "scalar" and "vector" generate code; "check" runs
#: both and asserts bitwise-identical array outputs (execute_kernel only).
BACKENDS = ("scalar", "vector", "check")

_default_backend = "scalar"


def set_default_backend(backend: str) -> str:
    """Set the process-wide backend used when ``execute_kernel`` is called
    without an explicit one (the CLI's ``--exec-backend`` lands here) and
    return the one it replaces, so the caller can put that back."""
    global _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown executor backend {backend!r}; "
                         f"expected one of {BACKENDS}")
    previous, _default_backend = _default_backend, backend
    return previous


def _make_codegen(kernel: KernelFunction,
                  semantics: dict[int, LoopSemantics] | None,
                  backend: str) -> _CodeGen:
    if backend == "scalar":
        return _CodeGen(kernel, semantics)
    if backend == "vector":
        from .vectorize import _VectorCodeGen  # local: vectorize subclasses us

        return _VectorCodeGen(kernel, semantics)
    raise ExecutionError(f"unknown codegen backend {backend!r}")


# -- compiled-kernel cache ---------------------------------------------------
#
# Keyed on (kernel fingerprint, canonical semantics, backend).  The
# fingerprint is content-addressed (repro.service.fingerprint over the
# canonical mini-C print), and semantics loop_ids are mapped to pre-order
# loop *positions*, so a re-parsed identical kernel with fresh loop_ids
# still hits.  The cache is an in-memory LRU OrderedDict of compiled
# functions; nothing is persisted, so no plan ever comes from disk.

_CACHE_CAP = 512
_fn_cache: OrderedDict[tuple, object] = OrderedDict()
_fn_cache_lock = threading.Lock()
_fn_flights = SingleFlight()


def clear_kernel_cache(memory_only: bool = False) -> None:
    """Drop every cached compiled kernel function (tests, benchmarks).

    ``memory_only`` is accepted and ignored: the cache is memory only.
    """
    with _fn_cache_lock:
        _fn_cache.clear()
        _fn_flights.clear()


def _exec_plan_source(source: str, backend: str, kernel_name: str):
    namespace: dict[str, object] = dict(_HELPERS)
    if backend == "vector":
        from .vectorize import _VHELPERS

        namespace.update(_VHELPERS)
    try:
        exec(compile(source, f"<kernel {kernel_name}>", "exec"), namespace)
    except SyntaxError as exc:  # pragma: no cover - codegen bug guard
        raise ExecutionError(
            f"generated code failed to compile:\n{source}"
        ) from exc
    return namespace["_kernel"]


def _semantics_key(kernel: KernelFunction,
                   semantics: dict[int, LoopSemantics] | None) -> tuple:
    if not semantics:
        return ()
    position = {loop.loop_id: i for i, loop in enumerate(kernel.loops())}
    items = []
    for loop_id, sem in semantics.items():
        pos = position.get(loop_id)
        if pos is None:
            continue  # semantics for loops the kernel doesn't have are inert
        chunks = sem.chunks if sem.mode is ExecMode.REDUCTION_LAST_CHUNK else 0
        items.append((pos, sem.mode.value, chunks))
    return tuple(sorted(items))


def _compile_uncached(
    kernel: KernelFunction,
    semantics: dict[int, LoopSemantics] | None,
    backend: str,
):
    """Generate and ``exec`` the kernel's source on a genuine memo miss."""
    if backend == "vector":
        with get_tracer().span("execute.vectorize", category="executor",
                               kernel=kernel.name):
            gen = _make_codegen(kernel, semantics, backend)
            source = gen.source()
        registry = get_registry()
        registry.counter("executor.vectorized").inc(gen.vectorized_loops)
        registry.counter("executor.fallback").inc(gen.fallback_loops)
        for reason, count in sorted(gen.fallback_reasons.items()):
            registry.counter(f"executor.fallback.{reason}").inc(count)
        if gen.grid_nests:
            registry.counter("executor.grid").inc(gen.grid_nests)
    else:
        source = _make_codegen(kernel, semantics, backend).source()
    return _exec_plan_source(source, backend, kernel.name)


def compile_kernel_fn(
    kernel: KernelFunction,
    semantics: dict[int, LoopSemantics] | None = None,
    backend: str = "scalar",
):
    """Compile *kernel* into a callable ``f(**args)`` (memoized).

    Thread-safe with single-flight semantics: N threads racing on a cold
    key run exactly one compile — the first thread leads a
    :class:`~repro.service.cache.SingleFlight` flight, the rest wait on
    it and count a cache hit.  The memo check and the join share one
    lock, and the leader installs the memo entry before it settles, so
    no racer misses both.  The memo tier is LRU: a hit moves the key to
    the back, eviction at ``_CACHE_CAP`` drops the least-recently-used.
    """
    from ..service.fingerprint import fingerprint_kernel

    key = (fingerprint_kernel(kernel), _semantics_key(kernel, semantics),
           backend)
    with _fn_cache_lock:
        cached = _fn_cache.get(key)
        if cached is not None:
            _fn_cache.move_to_end(key)
        else:
            flight, leader = _fn_flights.join(key)
    if cached is not None:
        get_registry().counter("executor.cache_hit").inc()
        return cached
    if not leader:
        compiled = flight.result()
        get_registry().counter("executor.cache_hit").inc()
        return compiled

    try:
        compiled = _compile_uncached(kernel, semantics, backend)
    except BaseException as exc:
        _fn_flights.settle(key, flight, error=exc)
        raise
    with _fn_cache_lock:
        while len(_fn_cache) >= _CACHE_CAP:
            _fn_cache.popitem(last=False)  # LRU eviction
        _fn_cache[key] = compiled
    _fn_flights.settle(key, flight, compiled)
    return compiled


def _check_args(kernel: KernelFunction,
                args: dict[str, object]) -> dict[str, object]:
    """Validate *args* against the kernel signature.

    Returns the mapping actually passed to the compiled function: arrays
    by reference (dtype *kind* must match the declared element type —
    an int buffer bound to a float parameter silently changes division
    semantics), scalars explicitly cast to plain Python ``int``/``float``
    (C truncation semantics for float-to-int).
    """
    call: dict[str, object] = {}
    for param in kernel.params:
        if param.name not in args:
            raise ExecutionError(f"missing argument {param.name!r}")
        value = args[param.name]
        if isinstance(param.type, ArrayType):
            if not isinstance(value, np.ndarray):
                raise ExecutionError(f"argument {param.name!r} must be an ndarray")
            if value.ndim != param.type.rank:
                raise ExecutionError(
                    f"argument {param.name!r} has rank {value.ndim}, "
                    f"expected {param.type.rank}"
                )
            kinds = "iub" if param.type.dtype.is_integer else "f"
            if value.dtype.kind not in kinds:
                raise ExecutionError(
                    f"argument {param.name!r} has dtype {value.dtype}, "
                    f"incompatible with declared {param.type.dtype.name}"
                )
            call[param.name] = value
        else:
            if isinstance(value, np.ndarray):
                raise ExecutionError(f"argument {param.name!r} must be a scalar")
            if not isinstance(value, (bool, int, float, np.bool_,
                                      np.integer, np.floating)):
                raise ExecutionError(
                    f"argument {param.name!r} must be a number, "
                    f"got {type(value).__name__}"
                )
            if param.type.dtype.is_integer:
                call[param.name] = int(value)  # C-style truncation
            else:
                call[param.name] = float(value)
    extra = set(args) - {p.name for p in kernel.params}
    if extra:
        raise ExecutionError(f"unexpected arguments: {sorted(extra)}")
    return call


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two same-dtype, same-shape arrays, compared in
    place (no byte copies): NaNs with equal payloads match, ``0.0`` and
    ``-0.0`` do not."""
    size = a.dtype.itemsize
    if size not in (1, 2, 4, 8):
        return a.tobytes() == b.tobytes()  # e.g. long double padding
    unsigned = np.dtype(f"u{size}")
    return bool(np.array_equal(a.view(unsigned), b.view(unsigned)))


def execute_kernel(
    kernel: KernelFunction,
    args: dict[str, object],
    semantics: dict[int, LoopSemantics] | None = None,
    backend: str | None = None,
) -> None:
    """Execute *kernel* in place on the NumPy arrays in *args*.

    *backend* is ``"scalar"``, ``"vector"`` or ``"check"`` (run both,
    raise :class:`ExecutionError` on any bitwise output difference);
    ``None`` uses the process-wide default (:func:`set_default_backend`).
    """
    backend = backend or _default_backend
    if backend not in BACKENDS:
        raise ExecutionError(f"unknown executor backend {backend!r}; "
                             f"expected one of {BACKENDS}")
    call = _check_args(kernel, args)

    if backend == "check":
        ref = {name: value.copy() if isinstance(value, np.ndarray) else value
               for name, value in call.items()}
        fn_scalar = compile_kernel_fn(kernel, semantics, "scalar")
        fn_scalar(**{_pyname(name): value for name, value in ref.items()})
        fn_vector = compile_kernel_fn(kernel, semantics, "vector")
        fn_vector(**{_pyname(name): value for name, value in call.items()})
        diverged = [
            name for name, value in call.items()
            if isinstance(value, np.ndarray)
            and not _same_bits(value, ref[name])
        ]
        if diverged:
            raise ExecutionError(
                f"vector backend diverged from scalar on kernel "
                f"{kernel.name!r}, arrays {sorted(diverged)}"
            )
        return

    fn = compile_kernel_fn(kernel, semantics, backend)
    fn(**{_pyname(name): value for name, value in call.items()})


def kernel_python_source(
    kernel: KernelFunction,
    semantics: dict[int, LoopSemantics] | None = None,
    backend: str = "scalar",
) -> str:
    """The generated Python source (debugging / documentation aid)."""
    return _make_codegen(kernel, semantics, backend).source()
