"""Lexer for the mini-C kernel language.

Produces a flat token stream; ``#pragma`` lines become single PRAGMA tokens
carrying their raw text (sub-parsed later by :mod:`repro.frontend.pragmas`),
mirroring how a real C tokenizer hands pragmas to the compiler as units.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = frozenset(
    {
        "for",
        "if",
        "else",
        "while",
        "void",
        "int",
        "long",
        "float",
        "double",
        "bool",
        "const",
        "restrict",
        "unsigned",
        "return",
    }
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=",
    "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
    "++", "--", "<<", ">>",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^",
    "(", ")", "[", "]", "{", "}", ",", ";", "?", ":",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<pragma>\#pragma[^\n]*)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<float>(\d+\.\d*|\.\d+)([eE][-+]?\d+)?[fF]?|\d+[eE][-+]?\d+[fF]?|\d+[fF])
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(SyntaxError):
    """Raised on an unrecognized character."""


@dataclass(frozen=True)
class Token:
    kind: str  # PRAGMA | FLOAT | INT | IDENT | KEYWORD | OP | EOF
    text: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


def tokenize(source: str) -> list[Token]:
    """Tokenize mini-C *source*, dropping comments and whitespace."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:  # pragma: no cover - regex has a catch-all
            raise LexError(f"cannot tokenize at offset {pos}")
        kind = match.lastgroup
        text = match.group()
        col = match.start() - line_start + 1
        if kind == "bad":
            raise LexError(f"unexpected character {text!r} at line {line}, col {col}")
        if kind == "pragma":
            tokens.append(Token("PRAGMA", text.strip(), line, col))
        elif kind == "float":
            tokens.append(Token("FLOAT", text, line, col))
        elif kind == "int":
            tokens.append(Token("INT", text, line, col))
        elif kind == "ident":
            token_kind = "KEYWORD" if text in KEYWORDS else "IDENT"
            tokens.append(Token(token_kind, text, line, col))
        elif kind == "op":
            tokens.append(Token("OP", text, line, col))
        # comments / whitespace are dropped, but line tracking continues
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + text.rindex("\n") + 1
        pos = match.end()
    tokens.append(Token("EOF", "", line, 1))
    return tokens
