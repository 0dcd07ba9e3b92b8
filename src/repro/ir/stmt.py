"""Statement nodes, kernels, and modules of the kernel IR.

Statements are plain dataclasses (not frozen: transforms clone via
``repro.ir.visitors.clone``), forming the loop-nest bodies that compilers
schedule onto device parallelism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .directives import DirectiveSet
from .expr import ArrayRef, Expr, Var
from .types import ArrayType, ScalarType, Type

_loop_ids = itertools.count(1)


def _fresh_loop_id() -> int:
    return next(_loop_ids)


class Stmt:
    """Base class for all statement nodes."""

    __slots__ = ()

    def children_stmts(self) -> tuple["Stmt", ...]:
        return ()

    def children_exprs(self) -> Iterator[Expr]:
        return iter(())

    def walk(self) -> Iterator["Stmt"]:
        """Yield this statement and all nested statements, pre-order."""
        yield self
        stack = list(self.children_stmts()[::-1])
        while stack:
            node = stack.pop()
            yield node
            children = node.children_stmts()
            if children:
                stack.extend(children[::-1])


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)

    def children_stmts(self) -> tuple[Stmt, ...]:
        return tuple(self.stmts)

    def __iter__(self):
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)


@dataclass
class Decl(Stmt):
    """A local scalar declaration, ``float sum = 0.0f;``"""

    name: str
    type: ScalarType
    init: Expr | None = None

    def children_exprs(self) -> Iterator[Expr]:
        if self.init is not None:
            yield self.init


@dataclass
class Assign(Stmt):
    """``target = value`` or compound ``target op= value``.

    ``atomic`` marks the update as an OpenACC 2.0 atomic access
    (``#pragma acc atomic``): safe under parallel execution even when the
    target element is shared between iterations.
    """

    target: Var | ArrayRef
    value: Expr
    op: str | None = None  # None for "=", else "+", "-", "*", "/"
    atomic: bool = False

    def __post_init__(self) -> None:
        if self.op is not None and self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unsupported compound-assign op {self.op!r}")

    def children_exprs(self) -> Iterator[Expr]:
        yield self.target
        yield self.value


@dataclass
class If(Stmt):
    cond: Expr
    then_body: Block
    else_body: Block | None = None

    def children_stmts(self) -> tuple[Stmt, ...]:
        if self.else_body is None:
            return (self.then_body,)
        return (self.then_body, self.else_body)

    def children_exprs(self) -> Iterator[Expr]:
        yield self.cond


@dataclass
class For(Stmt):
    """A canonical counted loop: ``for (var = lower; var < upper; var += step)``.

    ``loop_id`` is stable across clones of the same loop and is how
    transformation records and schedules refer to loops.
    """

    var: str
    lower: Expr
    upper: Expr
    body: Block
    step: int = 1
    directives: DirectiveSet = field(default_factory=DirectiveSet)
    loop_id: int = field(default_factory=_fresh_loop_id)

    def children_stmts(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def children_exprs(self) -> Iterator[Expr]:
        yield self.lower
        yield self.upper


@dataclass
class While(Stmt):
    """Host-side convergence loop (e.g. the BFS frontier loop)."""

    cond: Expr
    body: Block

    def children_stmts(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def children_exprs(self) -> Iterator[Expr]:
        yield self.cond


@dataclass
class Barrier(Stmt):
    """An explicit synchronization point (CUDA ``__syncthreads`` analogue).

    Only the low-level (hand-written CUDA/OpenCL) kernel descriptions use
    this; OpenACC has no block-level barrier, which is exactly why its tiling
    cannot exploit shared memory (paper Fig. 1).
    """


@dataclass
class Param:
    """A kernel parameter."""

    name: str
    type: Type
    intent: str = "inout"  # "in" | "out" | "inout"

    def __post_init__(self) -> None:
        if self.intent not in ("in", "out", "inout"):
            raise ValueError(f"bad intent {self.intent!r}")

    @property
    def is_array(self) -> bool:
        return isinstance(self.type, ArrayType)


@dataclass
class KernelFunction:
    """One offloadable compute region: a function body of loop nests."""

    name: str
    params: list[Param]
    body: Block
    directives: DirectiveSet = field(default_factory=DirectiveSet)

    @property
    def array_params(self) -> list[Param]:
        return [p for p in self.params if p.is_array]

    @property
    def scalar_params(self) -> list[Param]:
        return [p for p in self.params if not p.is_array]

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name!r} has no parameter {name!r}")

    def loops(self) -> list[For]:
        """All loops in the kernel, pre-order."""
        return [s for s in self.body.walk() if isinstance(s, For)]

    def top_level_loops(self) -> list[For]:
        return [s for s in self.body.stmts if isinstance(s, For)]

    def find_loop(self, loop_id: int) -> For:
        for loop in self.loops():
            if loop.loop_id == loop_id:
                return loop
        raise KeyError(f"kernel {self.name!r} has no loop id {loop_id}")

    def loop_by_var(self, var: str) -> For:
        for loop in self.loops():
            if loop.var == var:
                return loop
        raise KeyError(f"kernel {self.name!r} has no loop over {var!r}")


@dataclass
class Module:
    """A translation unit: several kernels sharing a set of parameters."""

    name: str
    kernels: list[KernelFunction] = field(default_factory=list)

    def kernel(self, name: str) -> KernelFunction:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"module {self.name!r} has no kernel {name!r}")

    def __iter__(self):
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)


def loop_nest_depth(loop: For) -> int:
    """Depth of the *perfect* nest rooted at ``loop`` (1 = single loop)."""
    depth = 1
    body = loop.body.stmts
    while len(body) == 1 and isinstance(body[0], For):
        depth += 1
        body = body[0].body.stmts
    return depth


def perfect_nest(loop: For) -> list[For]:
    """The loops of the perfect nest rooted at *loop*, outermost first."""
    nest = [loop]
    body = loop.body.stmts
    while len(body) == 1 and isinstance(body[0], For):
        nest.append(body[0])
        body = body[0].body.stmts
    return nest
