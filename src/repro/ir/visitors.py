"""Generic traversal, cloning, and rewriting utilities for the IR."""

from __future__ import annotations

from typing import Callable

from .expr import ArrayRef, Expr, Var, arrays_referenced, free_vars, substitute
from .stmt import (
    Assign,
    Barrier,
    Block,
    Decl,
    For,
    If,
    KernelFunction,
    Module,
    Param,
    Stmt,
    While,
)


def clone_stmt(stmt: Stmt) -> Stmt:
    """Deep-copy a statement tree.

    ``For.loop_id`` is preserved so optimization records keep pointing at
    the same logical loop across pipeline stages.
    """
    if isinstance(stmt, Block):
        return Block([clone_stmt(s) for s in stmt.stmts])
    if isinstance(stmt, Decl):
        return Decl(stmt.name, stmt.type, stmt.init)
    if isinstance(stmt, Assign):
        return Assign(stmt.target, stmt.value, stmt.op, stmt.atomic)
    if isinstance(stmt, If):
        return If(
            stmt.cond,
            clone_stmt(stmt.then_body),  # type: ignore[arg-type]
            clone_stmt(stmt.else_body) if stmt.else_body is not None else None,  # type: ignore[arg-type]
        )
    if isinstance(stmt, For):
        return For(
            var=stmt.var,
            lower=stmt.lower,
            upper=stmt.upper,
            body=clone_stmt(stmt.body),  # type: ignore[arg-type]
            step=stmt.step,
            directives=stmt.directives,
            loop_id=stmt.loop_id,
        )
    if isinstance(stmt, While):
        return While(stmt.cond, clone_stmt(stmt.body))  # type: ignore[arg-type]
    if isinstance(stmt, Barrier):
        return Barrier()
    raise TypeError(f"cannot clone {type(stmt).__name__}")


def clone_kernel(kernel: KernelFunction) -> KernelFunction:
    return KernelFunction(
        name=kernel.name,
        params=[Param(p.name, p.type, p.intent) for p in kernel.params],
        body=clone_stmt(kernel.body),  # type: ignore[arg-type]
        directives=kernel.directives,
    )


def clone_module(module: Module) -> Module:
    return Module(module.name, [clone_kernel(k) for k in module.kernels])


def rewrite_stmt(stmt: Stmt, fn: Callable[[Stmt], Stmt | None]) -> Stmt:
    """Bottom-up rewrite: apply *fn* to every statement after rewriting its
    children.  ``fn`` returns a replacement or ``None`` to keep the node."""
    if isinstance(stmt, Block):
        node: Stmt = Block([rewrite_stmt(s, fn) for s in stmt.stmts])
    elif isinstance(stmt, If):
        node = If(
            stmt.cond,
            rewrite_stmt(stmt.then_body, fn),  # type: ignore[arg-type]
            rewrite_stmt(stmt.else_body, fn) if stmt.else_body is not None else None,  # type: ignore[arg-type]
        )
    elif isinstance(stmt, For):
        node = For(
            var=stmt.var,
            lower=stmt.lower,
            upper=stmt.upper,
            body=rewrite_stmt(stmt.body, fn),  # type: ignore[arg-type]
            step=stmt.step,
            directives=stmt.directives,
            loop_id=stmt.loop_id,
        )
    elif isinstance(stmt, While):
        node = While(stmt.cond, rewrite_stmt(stmt.body, fn))  # type: ignore[arg-type]
    else:
        node = clone_stmt(stmt)
    replacement = fn(node)
    return node if replacement is None else replacement


def _rewrite_top_exprs(stmt: Stmt, fn: Callable[[Expr], Expr]) -> Stmt:
    """Clone *stmt*, applying *fn* once to each statement-level expression
    (the function is responsible for its own recursion)."""

    def rewrite(node: Stmt) -> Stmt | None:
        if isinstance(node, Decl):
            return Decl(node.name, node.type, fn(node.init) if node.init is not None else None)
        if isinstance(node, Assign):
            target = fn(node.target)
            if not isinstance(target, (Var, ArrayRef)):
                raise TypeError("assignment target must remain a Var or ArrayRef")
            return Assign(target, fn(node.value), node.op, node.atomic)
        if isinstance(node, If):
            return If(fn(node.cond), node.then_body, node.else_body)
        if isinstance(node, For):
            return For(
                var=node.var,
                lower=fn(node.lower),
                upper=fn(node.upper),
                body=node.body,
                step=node.step,
                directives=node.directives,
                loop_id=node.loop_id,
            )
        if isinstance(node, While):
            return While(fn(node.cond), node.body)
        return None

    return rewrite_stmt(stmt, rewrite)


def substitute_in_stmt(stmt: Stmt, mapping: dict[str, Expr]) -> Stmt:
    """Clone *stmt* with scalar variables substituted per *mapping*."""
    # substitute() recurses itself; apply it once per statement expression
    return _rewrite_top_exprs(stmt, lambda e: substitute(e, mapping))


def stmt_free_vars(stmt: Stmt) -> set[str]:
    names: set[str] = set()
    for node in stmt.walk():
        for expr in node.children_exprs():
            names |= free_vars(expr)
    return names


def stmt_arrays(stmt: Stmt) -> set[str]:
    names: set[str] = set()
    for node in stmt.walk():
        for expr in node.children_exprs():
            names |= arrays_referenced(expr)
    return names


def writes_and_reads(stmt: Stmt, skip_atomic: bool = False
                     ) -> tuple[list[ArrayRef], list[ArrayRef]]:
    """Collect array references written and read by a statement tree.

    Compound assignments (``a[i] += x``) count as both a write and a read of
    the target.  Scalar writes are not tracked here (see dependence analysis
    for scalar handling).  With ``skip_atomic`` the targets of atomic
    compound updates are excluded: an ``#pragma acc atomic`` read-modify-
    write cannot race, so dependence analysis may ignore it.
    """
    writes: list[ArrayRef] = []
    reads: list[ArrayRef] = []
    for node in stmt.walk():
        if isinstance(node, Assign):
            if (
                skip_atomic
                and node.atomic
                and node.op is not None
                and isinstance(node.target, ArrayRef)
            ):
                # the atomic target is neither a racing write nor a racing
                # read; its subscript arithmetic still reads index arrays
                for index in node.target.indices:
                    reads.extend(r for r in index.walk() if isinstance(r, ArrayRef))
                reads.extend(r for r in node.value.walk() if isinstance(r, ArrayRef))
                continue
            if isinstance(node.target, ArrayRef):
                writes.append(node.target)
                if node.op is not None:
                    reads.append(node.target)
                # index expressions of the target are *reads*
                for index in node.target.indices:
                    reads.extend(r for r in index.walk() if isinstance(r, ArrayRef))
            reads.extend(r for r in node.value.walk() if isinstance(r, ArrayRef))
        elif isinstance(node, If):
            reads.extend(r for r in node.cond.walk() if isinstance(r, ArrayRef))
        elif isinstance(node, Decl) and node.init is not None:
            reads.extend(r for r in node.init.walk() if isinstance(r, ArrayRef))
        elif isinstance(node, (For, While)):
            for expr in node.children_exprs():
                reads.extend(r for r in expr.walk() if isinstance(r, ArrayRef))
    return writes, reads


def scalar_writes(stmt: Stmt) -> set[str]:
    """Names of scalar variables assigned anywhere in *stmt*."""
    names: set[str] = set()
    for node in stmt.walk():
        if isinstance(node, Assign) and isinstance(node.target, Var):
            names.add(node.target.name)
        elif isinstance(node, Decl):
            names.add(node.name)
    return names
