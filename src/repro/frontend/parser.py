"""Recursive-descent parser: mini-C + pragmas -> kernel IR.

Grammar (informal)::

    module   := kernel*
    kernel   := pragma* "void" IDENT "(" params ")" block
    param    := ["const"|"unsigned"] type ["*"["restrict"]]* IDENT
    block    := "{" stmt* "}"
    stmt     := decl ";" | assign ";" | for | if | while | block | ";"
    for      := pragma* "for" "(" init ";" cond ";" incr ")" body
    expr     := C expression subset (ternary, ||, &&, compare, arith,
                unary, calls, array refs, casts)

Loops must be canonical counted loops (``i = lo; i < hi; i += step``) —
exactly the forms the OpenACC compilers of the paper can map to device
parallelism.  Anything else is rejected with a diagnostic.
"""

from __future__ import annotations

from ..ir.directives import Directive, DirectiveSet
from ..ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Cast,
    Expr,
    FloatLit,
    INTRINSICS,
    IntLit,
    Ternary,
    UnaryOp,
    Var,
    add,
    const,
)
from ..ir.stmt import (
    Assign,
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
from ..ir.types import ArrayType, DType, ScalarType
from .lexer import Token, tokenize
from .pragmas import parse_pragma

_TYPE_KEYWORDS = {"int", "long", "float", "double", "bool"}

# binary operator precedence for the climbing parser (higher binds tighter)
_BIN_PRECEDENCE = {
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


class ParseError(SyntaxError):
    """Raised with a line/column diagnostic on malformed input."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} (at line {token.line}, col {token.col}: {token.text!r})")
        self.token = token


class Parser:
    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check(self, kind: str, text: str | None = None) -> bool:
        token = self._cur
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        if not self._check(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}", self._cur)
        return self._advance()

    # -- pragmas ------------------------------------------------------------

    def _collect_pragmas(self) -> list[Directive]:
        directives: list[Directive] = []
        while self._check("PRAGMA"):
            directives.append(parse_pragma(self._advance().text))
        return directives

    # -- module / kernel ----------------------------------------------------

    def parse_module(self, name: str = "module") -> Module:
        kernels: list[KernelFunction] = []
        while not self._check("EOF"):
            kernels.append(self.parse_kernel())
        return Module(name, kernels)

    def parse_kernel(self) -> KernelFunction:
        directives = self._collect_pragmas()
        self._expect("KEYWORD", "void")
        name = self._expect("IDENT").text
        self._expect("OP", "(")
        params = self._parse_params()
        self._expect("OP", ")")
        body = self._parse_block()
        return KernelFunction(name, params, body, DirectiveSet(tuple(directives)))

    def _parse_params(self) -> list[Param]:
        params: list[Param] = []
        if self._check("OP", ")"):
            return params
        while True:
            params.append(self._parse_param())
            if not self._accept("OP", ","):
                break
        return params

    def _parse_param(self) -> Param:
        is_const = False
        while self._cur.kind == "KEYWORD" and self._cur.text in ("const", "unsigned"):
            if self._cur.text == "const":
                is_const = True
            self._advance()
        type_token = self._expect("KEYWORD")
        if type_token.text not in _TYPE_KEYWORDS:
            raise ParseError("expected a type name", type_token)
        dtype = DType.from_c_name(type_token.text)
        rank = 0
        while self._accept("OP", "*"):
            rank += 1
            self._accept("KEYWORD", "restrict")
            self._accept("KEYWORD", "const")
        name = self._expect("IDENT").text
        # trailing "[]" dimensions also raise rank
        while self._accept("OP", "["):
            self._accept("INT")
            self._expect("OP", "]")
            rank += 1
        if rank:
            intent = "in" if is_const else "inout"
            return Param(name, ArrayType(dtype, rank), intent)
        return Param(name, ScalarType(dtype), "in")

    # -- statements ---------------------------------------------------------

    def _parse_block(self) -> Block:
        self._expect("OP", "{")
        block = Block()
        while not self._check("OP", "}"):
            if self._check("EOF"):
                raise ParseError("unterminated block", self._cur)
            stmt = self._parse_stmt()
            if stmt is not None:
                block.stmts.append(stmt)
        self._expect("OP", "}")
        return block

    def _parse_body(self) -> Block:
        """A loop/if body: either a block or a single statement."""
        if self._check("OP", "{"):
            return self._parse_block()
        stmt = self._parse_stmt()
        return Block([stmt] if stmt is not None else [])

    def _parse_stmt(self) -> Stmt | None:
        if self._check("PRAGMA"):
            directives = self._collect_pragmas()
            from ..ir.directives import AccAtomic

            if directives and all(isinstance(d, AccAtomic) for d in directives):
                stmt = self._parse_assign()
                self._expect("OP", ";")
                stmt.atomic = True
                return stmt
            if not self._check("KEYWORD", "for"):
                raise ParseError("pragma must be followed by a for loop", self._cur)
            return self._parse_for(directives)
        if self._check("KEYWORD", "for"):
            return self._parse_for([])
        if self._check("KEYWORD", "if"):
            return self._parse_if()
        if self._check("KEYWORD", "while"):
            return self._parse_while()
        if self._check("OP", "{"):
            return self._parse_block()
        if self._accept("OP", ";"):
            return None
        if self._cur.kind == "KEYWORD" and self._cur.text in _TYPE_KEYWORDS | {
            "const",
            "unsigned",
        }:
            return self._parse_decl()
        stmt = self._parse_assign()
        self._expect("OP", ";")
        return stmt

    def _parse_decl(self) -> Stmt:
        while self._cur.kind == "KEYWORD" and self._cur.text in ("const", "unsigned"):
            self._advance()
        type_token = self._expect("KEYWORD")
        if type_token.text not in _TYPE_KEYWORDS:
            raise ParseError("expected a type name", type_token)
        dtype = DType.from_c_name(type_token.text)
        decls: list[Stmt] = []
        while True:
            name = self._expect("IDENT").text
            init = None
            if self._accept("OP", "="):
                init = self._parse_expr()
            decls.append(Decl(name, ScalarType(dtype), init))
            if not self._accept("OP", ","):
                break
        self._expect("OP", ";")
        if len(decls) == 1:
            return decls[0]
        return Block(decls)

    def _parse_for(self, directives: list[Directive]) -> For:
        self._expect("KEYWORD", "for")
        self._expect("OP", "(")

        # init: [type] var = expr
        if self._cur.kind == "KEYWORD" and self._cur.text in _TYPE_KEYWORDS | {"unsigned"}:
            while self._cur.kind == "KEYWORD":
                self._advance()
        var_token = self._expect("IDENT")
        var = var_token.text
        self._expect("OP", "=")
        lower = self._parse_expr()
        self._expect("OP", ";")

        # condition: var < expr | var <= expr
        cond_var = self._expect("IDENT")
        if cond_var.text != var:
            raise ParseError(
                f"non-canonical loop: condition tests {cond_var.text!r}, "
                f"induction variable is {var!r}",
                cond_var,
            )
        op_token = self._expect("OP")
        if op_token.text not in ("<", "<="):
            raise ParseError("loop condition must use < or <=", op_token)
        bound = self._parse_expr()
        upper = add(bound, 1) if op_token.text == "<=" else bound
        self._expect("OP", ";")

        # increment: var++ | var += c | var = var + c
        step = self._parse_increment(var)
        self._expect("OP", ")")
        body = self._parse_body()
        return For(
            var=var,
            lower=lower,
            upper=upper,
            body=body,
            step=step,
            directives=DirectiveSet(tuple(directives)),
        )

    def _parse_increment(self, var: str) -> int:
        name_token = self._expect("IDENT")
        if name_token.text != var:
            raise ParseError(
                f"non-canonical loop: increment updates {name_token.text!r}", name_token
            )
        if self._accept("OP", "++"):
            return 1
        if self._accept("OP", "+="):
            step_token = self._expect("INT")
            return int(step_token.text, 0)
        if self._accept("OP", "="):
            base = self._expect("IDENT")
            if base.text != var:
                raise ParseError("non-canonical loop increment", base)
            self._expect("OP", "+")
            step_token = self._expect("INT")
            return int(step_token.text, 0)
        raise ParseError("unsupported loop increment", self._cur)

    def _parse_if(self) -> If:
        self._expect("KEYWORD", "if")
        self._expect("OP", "(")
        cond = self._parse_expr()
        self._expect("OP", ")")
        then_body = self._parse_body()
        else_body = None
        if self._accept("KEYWORD", "else"):
            else_body = self._parse_body()
        return If(cond, then_body, else_body)

    def _parse_while(self) -> While:
        self._expect("KEYWORD", "while")
        self._expect("OP", "(")
        cond = self._parse_expr()
        self._expect("OP", ")")
        body = self._parse_body()
        return While(cond, body)

    def _parse_assign(self) -> Assign:
        target = self._parse_postfix()
        if not isinstance(target, (Var, ArrayRef)):
            raise ParseError("assignment target must be a variable or array element",
                             self._cur)
        if self._accept("OP", "++"):
            return Assign(target, const(1), op="+")
        if self._accept("OP", "--"):
            return Assign(target, const(1), op="-")
        op_token = self._expect("OP")
        if op_token.text == "=":
            return Assign(target, self._parse_expr())
        if op_token.text in ("+=", "-=", "*=", "/="):
            return Assign(target, self._parse_expr(), op=op_token.text[0])
        raise ParseError("expected an assignment operator", op_token)

    # -- expressions --------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(1)
        if self._accept("OP", "?"):
            then = self._parse_expr()
            self._expect("OP", ":")
            otherwise = self._parse_ternary()
            return Ternary(cond, then, otherwise)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        lhs = self._parse_unary()
        while True:
            token = self._cur
            prec = _BIN_PRECEDENCE.get(token.text) if token.kind == "OP" else None
            if prec is None or prec < min_prec:
                return lhs
            self._advance()
            rhs = self._parse_binary(prec + 1)
            lhs = BinOp(token.text, lhs, rhs)

    def _parse_unary(self) -> Expr:
        if self._cur.kind == "OP" and self._cur.text in ("-", "!", "~", "+"):
            op = self._advance().text
            operand = self._parse_unary()
            if op == "-" and isinstance(operand, IntLit):
                return IntLit(-operand.value, operand.dtype)
            if op == "-" and isinstance(operand, FloatLit):
                return FloatLit(-operand.value, operand.dtype)
            return UnaryOp(op, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while self._check("OP", "["):
            indices: list[Expr] = []
            while self._accept("OP", "["):
                indices.append(self._parse_expr())
                self._expect("OP", "]")
            if not isinstance(expr, Var):
                raise ParseError("can only index plain arrays", self._cur)
            expr = ArrayRef(expr.name, tuple(indices))
        return expr

    def _parse_primary(self) -> Expr:
        token = self._cur
        if token.kind == "INT":
            self._advance()
            return IntLit(int(token.text, 0))
        if token.kind == "FLOAT":
            self._advance()
            text = token.text
            if text[-1] in "fF":
                return FloatLit(float(text[:-1]), DType.FLOAT32)
            return FloatLit(float(text), DType.FLOAT64)
        if token.kind == "IDENT":
            self._advance()
            if self._check("OP", "(") and token.text in INTRINSICS:
                self._advance()
                args: list[Expr] = []
                if not self._check("OP", ")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept("OP", ","):
                            break
                self._expect("OP", ")")
                return Call(token.text, tuple(args))
            if self._check("OP", "(") and token.text not in INTRINSICS:
                raise ParseError(f"unknown function {token.text!r}", token)
            return Var(token.text)
        if token.kind == "OP" and token.text == "(":
            # cast or parenthesized expression
            if (
                self._peek().kind == "KEYWORD"
                and self._peek().text in _TYPE_KEYWORDS
                and self._peek(2).kind == "OP"
                and self._peek(2).text == ")"
            ):
                self._advance()  # (
                dtype = DType.from_c_name(self._advance().text)
                self._advance()  # )
                return Cast(dtype, self._parse_unary())
            self._advance()
            expr = self._parse_expr()
            self._expect("OP", ")")
            return expr
        raise ParseError("expected an expression", token)


def parse_kernel(source: str) -> KernelFunction:
    """Parse a single mini-C kernel function."""
    parser = Parser(source)
    kernel = parser.parse_kernel()
    if not parser._check("EOF"):
        raise ParseError("trailing input after kernel", parser._cur)
    return kernel


def parse_module(source: str, name: str = "module") -> Module:
    """Parse a translation unit of one or more kernels."""
    from ..telemetry.spans import get_tracer

    with get_tracer().span("frontend.parse", category="frontend",
                           module=name, chars=len(source)):
        return Parser(source).parse_module(name)


def parse_expr(source: str) -> Expr:
    """Parse a standalone expression (testing convenience)."""
    parser = Parser(source)
    expr = parser._parse_expr()
    if not parser._check("EOF"):
        raise ParseError("trailing input after expression", parser._cur)
    return expr
