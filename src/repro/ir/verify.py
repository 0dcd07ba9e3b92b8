"""IR verifier: typed-IR well-formedness checks between compiler passes.

Two check levels:

* **structure** — invariants every IR module must satisfy at every point
  of a pass pipeline: loop-id uniqueness, def-before-use of scalars,
  references only to declared arrays, statement-tree integrity (every
  statement has exactly one parent, bodies are :class:`~repro.ir.stmt.Block`
  instances, assignment targets are lvalues, loop steps are positive),
  and unique kernel/parameter names.
* **strict** — adds *directive legality*: ``independent`` must not sit on
  a loop the dependence analysis proves carried-dependent, ``reduction``
  clauses must name scalars the loop actually reduces (with the clause's
  operator), data-region clauses must be liveness-consistent (``create``
  only for arrays that are dead on entry, ``copyin`` only for arrays the
  kernel does not write, ``copyout`` only for arrays it writes), cache
  directives may stage only arrays the loop reads, ``collapse(n)`` must
  sit on a rectangular perfect nest at least *n* deep, gang/worker/vector
  clauses must nest coarse-to-fine (no gang inside worker, no worker
  inside vector), and ``intent="in"`` parameters must not be written.

The structure level is what pass pipelines run between passes (see
:mod:`repro.passes.pipeline`): it holds for every module the fuzzer
generates and for every intermediate state of the compiler models, which
deliberately honor *wrong* user directives (the paper's V-D2 scenario) —
directive legality is therefore a lint-grade, opt-in level.

Checks are named so pass metadata (``preserves`` / ``invalidates``) can
refer to them: a pass that duplicates cloned loop bodies (plain
unrolling of a non-innermost loop) declares it invalidates
``unique-loop-ids`` and the pipeline stops asserting that invariant for
the rest of the run.

Failures raise :class:`VerifyError`, which carries structured
:class:`VerifyFailure` records and a pass-attributed provenance trail.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .directives import AccCache, AccData, AccLoop
from .expr import ArrayRef, Expr, Var, free_vars
from .stmt import (
    Assign,
    Barrier,
    Block,
    Decl,
    For,
    If,
    KernelFunction,
    Module,
    Stmt,
    While,
)
from .types import ArrayType

__all__ = [
    "STRICT_CHECKS",
    "STRUCTURE_CHECKS",
    "VerifyError",
    "VerifyFailure",
    "check_kernel",
    "check_module",
    "verify_kernel",
    "verify_module",
]


@dataclass(frozen=True)
class VerifyFailure:
    """One violated invariant."""

    check: str
    kernel: str
    detail: str
    loop_id: int | None = None

    def __str__(self) -> str:
        where = f"{self.kernel}"
        if self.loop_id is not None:
            where += f" (loop id {self.loop_id})"
        return f"[{self.check}] {where}: {self.detail}"


class VerifyError(ValueError):
    """Raised when a module/kernel violates IR invariants.

    ``provenance`` is the trail of passes already applied when the
    verifier fired, so a broken pipeline names its culprit:
    ``after pass 'caps-unroll' (pipeline caps/cuda: caps-unroll)``.
    """

    def __init__(
        self,
        failures: list[VerifyFailure],
        provenance: tuple[str, ...] = (),
    ) -> None:
        self.failures = list(failures)
        self.provenance = tuple(provenance)
        lines = [str(f) for f in self.failures]
        head = f"IR verification failed ({len(lines)} violation(s))"
        if self.provenance:
            head += f" after pass {self.provenance[-1]!r} " \
                    f"(trail: {' -> '.join(self.provenance)})"
        super().__init__("\n  ".join([head, *lines]))


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------


def _check_unique_loop_ids(kernel: KernelFunction) -> list[VerifyFailure]:
    seen: dict[int, str] = {}
    out = []
    for loop in kernel.loops():
        if loop.loop_id in seen:
            out.append(
                VerifyFailure(
                    "unique-loop-ids",
                    kernel.name,
                    f"loop id {loop.loop_id} used by loops over "
                    f"{seen[loop.loop_id]!r} and {loop.var!r}",
                    loop_id=loop.loop_id,
                )
            )
        else:
            seen[loop.loop_id] = loop.var
    return out


def _check_stmt_integrity(kernel: KernelFunction) -> list[VerifyFailure]:
    out: list[VerifyFailure] = []

    def fail(detail: str, loop_id: int | None = None) -> None:
        out.append(
            VerifyFailure("stmt-integrity", kernel.name, detail, loop_id)
        )

    _visit_integrity(kernel.body, set(), fail)
    return out


def _visit_integrity(
    stmt: Stmt, seen_ids: set[int], fail: Callable[..., None]
) -> None:
    if id(stmt) in seen_ids:
        fail(
            f"{type(stmt).__name__} node appears more than once in the "
            "tree (aliased statement; transforms must clone)"
        )
        return  # do not recurse a second time
    seen_ids.add(id(stmt))
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            if not isinstance(child, Stmt):
                fail(f"Block contains non-statement {type(child).__name__}")
            else:
                _visit_integrity(child, seen_ids, fail)
        return
    if isinstance(stmt, Assign):
        if not isinstance(stmt.target, (Var, ArrayRef)):
            fail(
                "assignment target is "
                f"{type(stmt.target).__name__}, not an lvalue"
            )
        if stmt.op is not None and stmt.op not in ("+", "-", "*", "/"):
            fail(f"compound assignment operator {stmt.op!r} is illegal")
        return
    if isinstance(stmt, If):
        if not isinstance(stmt.then_body, Block):
            fail("If.then_body is not a Block")
        else:
            _visit_integrity(stmt.then_body, seen_ids, fail)
        if stmt.else_body is not None:
            if not isinstance(stmt.else_body, Block):
                fail("If.else_body is not a Block")
            else:
                _visit_integrity(stmt.else_body, seen_ids, fail)
        return
    if isinstance(stmt, For):
        if not isinstance(stmt.body, Block):
            fail("For.body is not a Block", stmt.loop_id)
        else:
            _visit_integrity(stmt.body, seen_ids, fail)
        if not isinstance(stmt.step, int) or stmt.step < 1:
            fail(
                f"loop over {stmt.var!r} has non-positive step "
                f"{stmt.step!r}",
                stmt.loop_id,
            )
        return
    if isinstance(stmt, While):
        if not isinstance(stmt.body, Block):
            fail("While.body is not a Block")
        else:
            _visit_integrity(stmt.body, seen_ids, fail)
        return
    if isinstance(stmt, (Decl, Barrier)):
        return
    fail(f"unknown statement node {type(stmt).__name__}")


def _check_unique_params(kernel: KernelFunction) -> list[VerifyFailure]:
    out = []
    seen: set[str] = set()
    for param in kernel.params:
        if param.name in seen:
            out.append(
                VerifyFailure(
                    "unique-params",
                    kernel.name,
                    f"parameter {param.name!r} declared twice",
                )
            )
        seen.add(param.name)
    return out


def _expr_uses(
    expr: Expr,
    defined: set[str],
    arrays: set[str],
    kernel: KernelFunction,
    out: list[VerifyFailure],
    where: str,
) -> None:
    scalars, array_names = expr.uses()
    for name in scalars:
        if name not in defined:
            out.append(
                VerifyFailure(
                    "def-before-use",
                    kernel.name,
                    f"scalar {name!r} used {where} before any definition",
                )
            )
    for name in array_names:
        if name not in arrays:
            out.append(
                VerifyFailure(
                    "known-arrays",
                    kernel.name,
                    f"array {name!r} referenced {where} is not an "
                    "array parameter",
                )
            )


def _check_def_before_use(kernel: KernelFunction) -> list[VerifyFailure]:
    out: list[VerifyFailure] = []
    arrays = {p.name for p in kernel.params if isinstance(p.type, ArrayType)}
    scalars = {
        p.name for p in kernel.params if not isinstance(p.type, ArrayType)
    }

    _visit_defs(kernel.body, scalars, arrays, kernel, out)
    return out


def _visit_defs(
    stmt: Stmt,
    defined: set[str],
    arrays: set[str],
    kernel: KernelFunction,
    out: list[VerifyFailure],
) -> set[str]:
    """Walk in execution order; returns the defined-set after *stmt*."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            defined = _visit_defs(child, defined, arrays, kernel, out)
        return defined
    if isinstance(stmt, Decl):
        if stmt.init is not None:
            _expr_uses(stmt.init, defined, arrays, kernel, out,
                       f"in initializer of {stmt.name!r}")
        return defined | {stmt.name}
    if isinstance(stmt, Assign):
        _expr_uses(stmt.value, defined, arrays, kernel, out,
                   "in assignment value")
        if isinstance(stmt.target, ArrayRef):
            _expr_uses(stmt.target, defined, arrays, kernel, out,
                       "in store subscript")
            return defined
        if isinstance(stmt.target, Var):
            # a plain scalar store defines the scalar for later stmts
            return defined | {stmt.target.name}
        return defined  # non-lvalue target: stmt-integrity reports it
    if isinstance(stmt, If):
        _expr_uses(stmt.cond, defined, arrays, kernel, out,
                   "in if condition")
        then_defs = _visit_defs(stmt.then_body, set(defined), arrays,
                                kernel, out)
        if stmt.else_body is not None:
            else_defs = _visit_defs(stmt.else_body, set(defined), arrays,
                                    kernel, out)
            return then_defs & else_defs  # defined on both paths only
        return defined
    if isinstance(stmt, For):
        inner = defined | {stmt.var}
        _expr_uses(stmt.lower, inner, arrays, kernel, out,
                   f"in bounds of loop over {stmt.var!r}")
        _expr_uses(stmt.upper, inner, arrays, kernel, out,
                   f"in bounds of loop over {stmt.var!r}")
        _visit_defs(stmt.body, inner, arrays, kernel, out)
        # the C idiom declares indices up front; the loop variable
        # holds its final value after the loop
        return defined | {stmt.var}
    if isinstance(stmt, While):
        _expr_uses(stmt.cond, defined, arrays, kernel, out,
                   "in while condition")
        _visit_defs(stmt.body, set(defined), arrays, kernel, out)
        return defined
    return defined


# ---------------------------------------------------------------------------
# strict (directive legality) checks
# ---------------------------------------------------------------------------


def _check_directive_independent(kernel: KernelFunction) -> list[VerifyFailure]:
    from ..analysis.dependence import Verdict, analyze_loop

    out = []
    for loop in kernel.loops():
        acc = loop.directives.first(AccLoop)
        if acc is None or not acc.independent:  # type: ignore[union-attr]
            continue
        report = analyze_loop(loop)
        if report.verdict is Verdict.DEPENDENT:
            out.append(
                VerifyFailure(
                    "directive-independent",
                    kernel.name,
                    f"loop over {loop.var!r} is marked independent but "
                    f"carries dependences: {'; '.join(report.reasons)}",
                    loop_id=loop.loop_id,
                )
            )
    return out


def _check_directive_reduction(kernel: KernelFunction) -> list[VerifyFailure]:
    from ..analysis.dependence import analyze_loop

    out = []
    for loop in kernel.loops():
        acc = loop.directives.first(AccLoop)
        if acc is None or acc.reduction is None:  # type: ignore[union-attr]
            continue
        clause = acc.reduction  # type: ignore[union-attr]
        report = analyze_loop(loop)
        recognized = {r.var: r.op for r in report.reductions}
        if clause.var not in recognized:
            out.append(
                VerifyFailure(
                    "directive-reduction",
                    kernel.name,
                    f"reduction({clause.op}:{clause.var}) names a scalar "
                    f"the loop over {loop.var!r} does not reduce "
                    f"(recognized: {sorted(recognized) or 'none'})",
                    loop_id=loop.loop_id,
                )
            )
        elif recognized[clause.var] != clause.op:
            out.append(
                VerifyFailure(
                    "directive-reduction",
                    kernel.name,
                    f"reduction({clause.op}:{clause.var}) disagrees with "
                    f"the loop's {recognized[clause.var]!r} accumulation",
                    loop_id=loop.loop_id,
                )
            )
    return out


def _live_in_arrays(kernel: KernelFunction) -> set[str]:
    """Arrays that may be read before they are written (conservative:
    any read not *preceded on every path* by a full overwrite counts —
    we approximate 'definitely written first' by 'written by an earlier
    top-level statement whose write moves with its loop')."""
    from .visitors import writes_and_reads

    live: set[str] = set()
    written: set[str] = set()
    for stmt in kernel.body.stmts:
        w, r = writes_and_reads(stmt)
        live |= {ref.name for ref in r} - written
        written |= {ref.name for ref in w}
    return live


def _check_directive_data(kernel: KernelFunction) -> list[VerifyFailure]:
    from .visitors import writes_and_reads

    data = kernel.directives.first(AccData)
    if data is None:
        return []
    out = []
    arrays = {p.name for p in kernel.params if isinstance(p.type, ArrayType)}
    writes, reads = writes_and_reads(kernel.body)
    written = {ref.name for ref in writes}
    for clause in ("copy", "copyin", "copyout", "create", "present"):
        unknown = set(getattr(data, clause)) - arrays
        for name in sorted(unknown):
            out.append(
                VerifyFailure(
                    "directive-data",
                    kernel.name,
                    f"data clause {clause}({name}) names an unknown array",
                )
            )
    live_in = _live_in_arrays(kernel)
    for name in data.create:
        if name in live_in:
            out.append(
                VerifyFailure(
                    "directive-data",
                    kernel.name,
                    f"create({name}) on an array that is live on entry "
                    "(read before written): device buffer would hold "
                    "garbage",
                )
            )
    for name in data.copyin:
        if name in written:
            out.append(
                VerifyFailure(
                    "directive-data",
                    kernel.name,
                    f"copyin({name}) on an array the kernel writes: the "
                    "host copy would silently diverge",
                )
            )
    for name in data.copyout:
        if name not in written:
            out.append(
                VerifyFailure(
                    "directive-data",
                    kernel.name,
                    f"copyout({name}) on an array the kernel never writes",
                )
            )
    return out


def _check_directive_cache(kernel: KernelFunction) -> list[VerifyFailure]:
    from .visitors import writes_and_reads

    out = []
    for loop in kernel.loops():
        cache = loop.directives.first(AccCache)
        if cache is None:
            continue
        writes, reads = writes_and_reads(loop.body)
        read = {ref.name for ref in reads}
        written = {ref.name for ref in writes}
        for name in cache.arrays:  # type: ignore[union-attr]
            if name not in read:
                out.append(
                    VerifyFailure(
                        "directive-cache",
                        kernel.name,
                        f"cache({name}) stages an array the loop over "
                        f"{loop.var!r} never reads",
                        loop_id=loop.loop_id,
                    )
                )
            elif name in written:
                out.append(
                    VerifyFailure(
                        "directive-cache",
                        kernel.name,
                        f"cache({name}) stages an array the loop over "
                        f"{loop.var!r} writes: staged reads would miss "
                        "the update",
                        loop_id=loop.loop_id,
                    )
                )
    return out


def _check_collapse_legality(kernel: KernelFunction) -> list[VerifyFailure]:
    from .stmt import loop_nest_depth, perfect_nest

    out = []
    for loop in kernel.loops():
        acc = loop.directives.first(AccLoop)
        if acc is None or acc.collapse is None:  # type: ignore[union-attr]
            continue
        n = acc.collapse  # type: ignore[union-attr]
        if n < 2:
            out.append(
                VerifyFailure(
                    "collapse-legality",
                    kernel.name,
                    f"collapse({n}) is meaningless: the clause needs at "
                    "least two loops to merge",
                    loop_id=loop.loop_id,
                )
            )
            continue
        depth = loop_nest_depth(loop)
        if depth < n:
            out.append(
                VerifyFailure(
                    "collapse-legality",
                    kernel.name,
                    f"collapse({n}) on loop over {loop.var!r} but the "
                    f"perfect nest is only {depth} deep",
                    loop_id=loop.loop_id,
                )
            )
            continue
        # the collapsed iteration space must be rectangular: an inner
        # bound that reads an outer induction variable (triangular nests,
        # e.g. LUD's elimination loops) cannot be linearized
        nest = perfect_nest(loop)[:n]
        outer_vars: set[str] = set()
        for inner in nest:
            bound_vars = free_vars(inner.lower) | free_vars(inner.upper)
            tainted = bound_vars & outer_vars
            if tainted:
                out.append(
                    VerifyFailure(
                        "collapse-legality",
                        kernel.name,
                        f"collapse({n}) spans a non-rectangular nest: "
                        f"bounds of the loop over {inner.var!r} read outer "
                        f"induction variable(s) {sorted(tainted)}",
                        loop_id=loop.loop_id,
                    )
                )
                break
            outer_vars.add(inner.var)
    return out


#: parallelism level of each ``acc loop`` clause, coarse to fine — a
#: descendant loop may only use levels strictly finer than every level
#: its ancestor already occupies (OpenACC 2.0 sec. 2.9: gang may not
#: appear inside worker, worker may not appear inside vector)
_CLAUSE_LEVELS = (("gang", 3), ("worker", 2), ("vector", 1))


def _parallelism_levels(loop: For) -> set[int]:
    acc = loop.directives.first(AccLoop)
    if acc is None:
        return set()
    levels = set()
    for clause, level in _CLAUSE_LEVELS:
        if getattr(acc, clause) is not None or getattr(acc, f"{clause}_auto",
                                                      False):
            levels.add(level)
    return levels


def _outermost_loops(stmt: Stmt) -> list[For]:
    """The For loops under *stmt* that have no For between them and it."""
    found: list[For] = []
    stack = list(reversed(stmt.children_stmts()))
    while stack:
        node = stack.pop()
        if isinstance(node, For):
            found.append(node)
        else:
            stack.extend(reversed(node.children_stmts()))
    return found


def _check_gang_worker_nesting(kernel: KernelFunction) -> list[VerifyFailure]:
    out: list[VerifyFailure] = []
    # floor 4 is coarser than gang(3): an outermost loop may use any level
    for top in _outermost_loops(kernel.body):
        _visit_nesting(top, 4, None, kernel, out)
    return out


def _visit_nesting(
    loop: For,
    floor: int,
    ancestor: For | None,
    kernel: KernelFunction,
    out: list[VerifyFailure],
) -> None:
    levels = _parallelism_levels(loop)
    coarse = {lvl for lvl in levels if lvl >= floor}
    if coarse and ancestor is not None:
        names = sorted(c for c, lvl in _CLAUSE_LEVELS if lvl in coarse)
        out.append(
            VerifyFailure(
                "gang-worker-nesting",
                kernel.name,
                f"loop over {loop.var!r} schedules {'/'.join(names)} "
                f"inside the loop over {ancestor.var!r}, which already "
                "occupies that parallelism level or finer",
                loop_id=loop.loop_id,
            )
        )
    inner_floor = min(floor, *levels) if levels else floor
    inner_ancestor = loop if levels else ancestor
    for inner in _outermost_loops(loop.body):
        _visit_nesting(inner, inner_floor, inner_ancestor, kernel, out)


def _check_param_intent(kernel: KernelFunction) -> list[VerifyFailure]:
    from .visitors import writes_and_reads

    writes, _ = writes_and_reads(kernel.body)
    written = {ref.name for ref in writes}
    out = []
    for param in kernel.params:
        if (
            isinstance(param.type, ArrayType)
            and param.intent == "in"
            and param.name in written
        ):
            out.append(
                VerifyFailure(
                    "param-intent",
                    kernel.name,
                    f"const (intent 'in') array {param.name!r} is written",
                )
            )
    return out


# ---------------------------------------------------------------------------
# check registry + entry points
# ---------------------------------------------------------------------------

#: name -> check function, in report order
_KERNEL_CHECKS = {
    "stmt-integrity": _check_stmt_integrity,
    "unique-params": _check_unique_params,
    "unique-loop-ids": _check_unique_loop_ids,
    "def-before-use": _check_def_before_use,
    "directive-independent": _check_directive_independent,
    "directive-reduction": _check_directive_reduction,
    "directive-data": _check_directive_data,
    "directive-cache": _check_directive_cache,
    "collapse-legality": _check_collapse_legality,
    "gang-worker-nesting": _check_gang_worker_nesting,
    "param-intent": _check_param_intent,
}

STRUCTURE_CHECKS: tuple[str, ...] = (
    "stmt-integrity",
    "unique-params",
    "unique-loop-ids",
    "def-before-use",
)

STRICT_CHECKS: tuple[str, ...] = STRUCTURE_CHECKS + (
    "directive-independent",
    "directive-reduction",
    "directive-data",
    "directive-cache",
    "collapse-legality",
    "gang-worker-nesting",
    "param-intent",
)

def _selected(level: str, skip: frozenset[str] | set[str]) -> list[str]:
    if level == "structure":
        names = STRUCTURE_CHECKS
    elif level == "strict":
        names = STRICT_CHECKS
    else:
        raise ValueError(f"unknown verify level {level!r}")
    return [n for n in names if n not in skip]


def check_kernel(
    kernel: KernelFunction,
    level: str = "structure",
    skip: frozenset[str] | set[str] = frozenset(),
) -> list[VerifyFailure]:
    """All failures of *kernel* at *level* (non-raising).

    ``known-arrays`` failures are produced by the ``def-before-use``
    walker; naming either in *skip* suppresses that failure kind.
    """
    failures: list[VerifyFailure] = []
    for name in _selected(level, skip):
        failures.extend(_KERNEL_CHECKS[name](kernel))
        if name == "stmt-integrity" and failures:
            # a broken statement tree (aliased nodes, foreign objects in
            # blocks) makes the remaining checks' traversals unsafe;
            # report the integrity violations alone
            break
    return [f for f in failures if f.check not in skip]


def check_module(
    module: Module,
    level: str = "structure",
    skip: frozenset[str] | set[str] = frozenset(),
) -> list[VerifyFailure]:
    failures: list[VerifyFailure] = []
    seen: set[str] = set()
    for kernel in module.kernels:
        if kernel.name in seen:
            failures.append(
                VerifyFailure(
                    "unique-kernels",
                    kernel.name,
                    f"module {module.name!r} defines kernel "
                    f"{kernel.name!r} twice",
                )
            )
        seen.add(kernel.name)
        failures.extend(check_kernel(kernel, level, skip))
    return failures


def verify_kernel(
    kernel: KernelFunction,
    level: str = "structure",
    skip: frozenset[str] | set[str] = frozenset(),
    provenance: tuple[str, ...] = (),
) -> None:
    """Raise :class:`VerifyError` if *kernel* violates any selected check."""
    failures = check_kernel(kernel, level, skip)
    if failures:
        raise VerifyError(failures, provenance)


def verify_module(
    module: Module,
    level: str = "structure",
    skip: frozenset[str] | set[str] = frozenset(),
    provenance: tuple[str, ...] = (),
) -> None:
    """Raise :class:`VerifyError` if *module* violates any selected check."""
    failures = check_module(module, level, skip)
    if failures:
        raise VerifyError(failures, provenance)
