"""Mini-C + OpenACC/HMPP pragma frontend.

Parses the kernel sources of the five benchmarks (and any user-written
kernel in the same subset) into the loop-nest IR of :mod:`repro.ir`.
"""

from .lexer import LexError, Token, tokenize
from .parser import ParseError, Parser, parse_expr, parse_kernel, parse_module
from .pragmas import PragmaError, parse_pragma

__all__ = [
    "LexError",
    "ParseError",
    "Parser",
    "PragmaError",
    "Token",
    "parse_expr",
    "parse_kernel",
    "parse_module",
    "parse_pragma",
    "tokenize",
]
