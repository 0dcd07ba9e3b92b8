"""Expression nodes of the kernel IR.

Expressions are immutable (frozen dataclasses) so they can be shared freely
between transformed kernels; transformations build new trees instead of
mutating.  So a node may keep facts derived from its tree (:meth:`Expr.uses`)
for its whole life.  Every node supports ``children()`` for generic traversal
and structural equality for testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .types import DType

#: Binary operators in the mini-C subset, grouped for classification.
ARITH_BINOPS = frozenset({"+", "-", "*", "/", "%"})
COMPARE_BINOPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
LOGICAL_BINOPS = frozenset({"&&", "||"})
BITWISE_BINOPS = frozenset({"&", "|", "^", "<<", ">>"})
ALL_BINOPS = ARITH_BINOPS | COMPARE_BINOPS | LOGICAL_BINOPS | BITWISE_BINOPS

#: Math intrinsics accepted by the frontend (the union of what the five
#: benchmark sources use).
INTRINSICS = frozenset(
    {
        "sqrt",
        "fabs",
        "abs",
        "exp",
        "log",
        "pow",
        "fmin",
        "fmax",
        "min",
        "max",
        "floor",
        "ceil",
    }
)


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        stack = list(self.children()[::-1])
        while stack:
            node = stack.pop()
            yield node
            children = node.children()
            if children:
                stack.extend(children[::-1])

    def uses(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """``(sorted scalar names, array names in pre-order)`` of this tree.

        What the verifier's def-before-use check reads.  One traversal on
        first call; the result is kept on the node, which is immutable and
        shared between clones, and left out of its pickled state.
        """
        try:
            return self._uses  # type: ignore[attr-defined]
        except AttributeError:
            pass
        scalars: set[str] = set()
        arrays: list[str] = []
        for node in self.walk():
            if isinstance(node, Var):
                scalars.add(node.name)
            elif isinstance(node, ArrayRef):
                arrays.append(node.name)
        uses = (tuple(sorted(scalars)), tuple(arrays))
        # past the frozen-dataclass guard; an attribute store, unlike a
        # write through __dict__, does not build the node's instance dict
        object.__setattr__(self, "_uses", uses)
        return uses

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_uses" in state:
            state = {key: value for key, value in state.items()
                     if key != "_uses"}
        return state


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    dtype: DType = DType.INT32

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float
    dtype: DType = DType.FLOAT32

    def __str__(self) -> str:
        text = repr(self.value)
        if self.dtype is DType.FLOAT32 and "e" not in text and "." in text:
            text += "f"
        return text


@dataclass(frozen=True)
class Var(Expr):
    """A reference to a scalar variable (parameter, local, or loop index)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef(Expr):
    """``a[i]`` / ``a[i][j]`` — an element of an array parameter."""

    name: str
    indices: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.indices

    def __str__(self) -> str:
        return self.name + "".join(f"[{i}]" for i in self.indices)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in ALL_BINOPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-", "!", "~"
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("-", "!", "~", "+"):
            raise ValueError(f"unknown unary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Call(Expr):
    """A call to a math intrinsic."""

    func: str
    args: tuple[Expr, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.func not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {self.func!r}")

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Ternary(Expr):
    """``cond ? then : otherwise``"""

    cond: Expr
    then: Expr
    otherwise: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.otherwise})"


@dataclass(frozen=True)
class Cast(Expr):
    """An explicit C cast, ``(double)x``."""

    dtype: DType
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(({self.dtype.c_name}){self.operand})"


# ---------------------------------------------------------------------------
# Convenience constructors used by the Python builder API and transforms.
# ---------------------------------------------------------------------------


def const(value: int | float, dtype: DType | None = None) -> Expr:
    """Wrap a Python number as an IR literal."""
    if isinstance(value, bool):
        return IntLit(int(value), DType.BOOL)
    if isinstance(value, int):
        return IntLit(value, dtype or DType.INT32)
    return FloatLit(float(value), dtype or DType.FLOAT64)


def as_expr(value: "Expr | int | float | str") -> Expr:
    """Coerce a Python value into an expression node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return Var(value)
    return const(value)


def add(a, b) -> Expr:
    return BinOp("+", as_expr(a), as_expr(b))


def sub(a, b) -> Expr:
    return BinOp("-", as_expr(a), as_expr(b))


def mul(a, b) -> Expr:
    return BinOp("*", as_expr(a), as_expr(b))


def div(a, b) -> Expr:
    return BinOp("/", as_expr(a), as_expr(b))


def idx(name: str, *indices) -> ArrayRef:
    return ArrayRef(name, tuple(as_expr(i) for i in indices))


def free_vars(expr: Expr) -> set[str]:
    """Names of all scalar variables referenced by *expr*."""
    return set(expr.uses()[0])


def arrays_referenced(expr: Expr) -> set[str]:
    """Names of all arrays referenced by *expr*."""
    return set(expr.uses()[1])


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Return *expr* with every ``Var(name)`` in *mapping* replaced.

    Array names are not substituted; only scalar variable uses.  This is the
    workhorse of loop unrolling and tiling (induction-variable rewriting).
    """
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.name, tuple(substitute(i, mapping) for i in expr.indices))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.lhs, mapping), substitute(expr.rhs, mapping))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute(expr.operand, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(substitute(a, mapping) for a in expr.args))
    if isinstance(expr, Ternary):
        return Ternary(
            substitute(expr.cond, mapping),
            substitute(expr.then, mapping),
            substitute(expr.otherwise, mapping),
        )
    if isinstance(expr, Cast):
        return Cast(expr.dtype, substitute(expr.operand, mapping))
    return expr
