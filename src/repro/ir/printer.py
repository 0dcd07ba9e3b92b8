"""Pretty-printer: render IR back to mini-C with pragmas.

The printer's output is re-parseable by :mod:`repro.frontend`, which gives
us a round-trip property used heavily by the test suite.
"""

from __future__ import annotations

from .directives import DirectiveSet
from .expr import (
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
from .types import ArrayType, DType

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


def format_expr(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression with minimal parenthesization."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, FloatLit):
        text = repr(expr.value)
        if expr.dtype is DType.FLOAT32:
            if "e" in text or "." in text:
                text += "f"
            else:
                text += ".0f"
        elif "." not in text and "e" not in text:
            text += ".0"
        return text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, ArrayRef):
        return expr.name + "".join(f"[{format_expr(i)}]" for i in expr.indices)
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        text = f"{format_expr(expr.lhs, prec)} {expr.op} {format_expr(expr.rhs, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, UnaryOp):
        return f"{expr.op}{format_expr(expr.operand, 11)}"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(format_expr(a) for a in expr.args)})"
    if isinstance(expr, Ternary):
        text = (
            f"{format_expr(expr.cond, 1)} ? {format_expr(expr.then)}"
            f" : {format_expr(expr.otherwise)}"
        )
        return f"({text})" if parent_prec > 0 else text
    if isinstance(expr, Cast):
        return f"({expr.dtype.c_name}){format_expr(expr.operand, 11)}"
    raise TypeError(f"cannot print expression {type(expr).__name__}")


class CPrinter:
    """Stateful indentation-aware printer for statements and kernels."""

    def __init__(self, indent: str = "    ") -> None:
        self._indent = indent
        self._lines: list[str] = []
        self._level = 0

    def _emit(self, text: str) -> None:
        self._lines.append(self._indent * self._level + text)

    def _emit_directives(self, directives: DirectiveSet) -> None:
        for directive in directives:
            self._emit(str(directive))

    def print_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self.print_stmt(child)
        elif isinstance(stmt, Decl):
            init = f" = {format_expr(stmt.init)}" if stmt.init is not None else ""
            self._emit(f"{stmt.type.dtype.c_name} {stmt.name}{init};")
        elif isinstance(stmt, Assign):
            if stmt.atomic:
                self._emit("#pragma acc atomic update")
            op = (stmt.op or "") + "="
            self._emit(f"{format_expr(stmt.target)} {op} {format_expr(stmt.value)};")
        elif isinstance(stmt, If):
            self._emit(f"if ({format_expr(stmt.cond)}) {{")
            self._level += 1
            self.print_stmt(stmt.then_body)
            self._level -= 1
            if stmt.else_body is not None and len(stmt.else_body) > 0:
                self._emit("} else {")
                self._level += 1
                self.print_stmt(stmt.else_body)
                self._level -= 1
            self._emit("}")
        elif isinstance(stmt, For):
            self._emit_directives(stmt.directives)
            step = f"{stmt.var}++" if stmt.step == 1 else f"{stmt.var} += {stmt.step}"
            self._emit(
                f"for ({stmt.var} = {format_expr(stmt.lower)}; "
                f"{stmt.var} < {format_expr(stmt.upper)}; {step}) {{"
            )
            self._level += 1
            self.print_stmt(stmt.body)
            self._level -= 1
            self._emit("}")
        elif isinstance(stmt, While):
            self._emit(f"while ({format_expr(stmt.cond)}) {{")
            self._level += 1
            self.print_stmt(stmt.body)
            self._level -= 1
            self._emit("}")
        elif isinstance(stmt, Barrier):
            self._emit("__syncthreads();")
        else:
            raise TypeError(f"cannot print statement {type(stmt).__name__}")

    def print_kernel(self, kernel: KernelFunction) -> None:
        self._emit_directives(kernel.directives)
        params = []
        for p in kernel.params:
            if isinstance(p.type, ArrayType):
                # intent "in" prints as const so the round-trip preserves
                # read-only-ness (the parser maps const arrays to intent
                # "in", which PGI's alias analysis relies on)
                const = "const " if p.intent == "in" else ""
                params.append(
                    f"{const}{p.type.dtype.c_name} {'*' * p.type.rank}{p.name}"
                )
            else:
                params.append(f"{p.type.dtype.c_name} {p.name}")
        self._emit(f"void {kernel.name}({', '.join(params)}) {{")
        self._level += 1
        # declare loop indices used but not declared / not parameters, one
        # per line: the parser splits `int a, b;` into one Decl per name,
        # which re-prints as one line each, so this keeps print∘parse a
        # fixpoint
        declared = {p.name for p in kernel.params}
        declared |= {s.name for s in kernel.body.walk() if isinstance(s, Decl)}
        index_vars = sorted(
            {s.var for s in kernel.body.walk() if isinstance(s, For)} - declared
        )
        for var in index_vars:
            self._emit(f"int {var};")
        self.print_stmt(kernel.body)
        self._level -= 1
        self._emit("}")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def print_kernel(kernel: KernelFunction) -> str:
    printer = CPrinter()
    printer.print_kernel(kernel)
    return printer.text()


def print_module(module: Module) -> str:
    printer = CPrinter()
    for i, kernel in enumerate(module.kernels):
        if i:
            printer._lines.append("")
        printer.print_kernel(kernel)
    return printer.text()


def print_stmt(stmt: Stmt) -> str:
    printer = CPrinter()
    printer.print_stmt(stmt)
    return printer.text()
