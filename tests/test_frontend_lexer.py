"""Tests for repro.frontend.lexer."""

import pytest

from repro.frontend.lexer import LexError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind != "EOF"]


class TestTokenize:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("for foo int n")
        assert [t.kind for t in tokens[:-1]] == [
            "KEYWORD", "IDENT", "KEYWORD", "IDENT",
        ]

    def test_numbers(self):
        tokens = tokenize("42 0x1F 3.5 1e-3 2.0f 7f")
        assert [t.kind for t in tokens[:-1]] == [
            "INT", "INT", "FLOAT", "FLOAT", "FLOAT", "FLOAT",
        ]

    def test_operators_maximal_munch(self):
        assert texts("a+=b") == ["a", "+=", "b"]
        assert texts("i++") == ["i", "++"]
        assert texts("a<=b") == ["a", "<=", "b"]
        assert texts("a<b") == ["a", "<", "b"]
        assert texts("x&&y||z") == ["x", "&&", "y", "||", "z"]

    def test_pragma_is_single_token(self):
        tokens = tokenize("#pragma acc loop independent\nfor")
        assert tokens[0].kind == "PRAGMA"
        assert tokens[0].text == "#pragma acc loop independent"
        assert tokens[1].text == "for"

    def test_comments_dropped(self):
        assert texts("a // comment\nb /* multi\nline */ c") == ["a", "b", "c"]

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3 and tokens[2].col == 3

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "EOF"

    @pytest.mark.parametrize("source", ["a @ b", "a $n b"])
    def test_bad_character(self, source):
        with pytest.raises(LexError):
            tokenize(source)

    def test_multiline_comment_line_tracking(self):
        tokens = tokenize("/* a\nb\nc */ x")
        assert tokens[0].text == "x" and tokens[0].line == 3
