"""Unit tests for the tokeniser."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]  # drop EOF


class TestTokenize:
    def test_simple_assignment(self):
        assert texts("x = a + b;") == ["x", "=", "a", "+", "b", ";"]

    def test_keywords_recognised(self):
        tokens = tokenize("if while else do repeat skip")
        assert all(t.kind == "KEYWORD" for t in tokens[:-1])

    def test_identifier_with_underscore_and_digits(self):
        tokens = tokenize("my_var2")
        assert tokens[0].kind == "IDENT"
        assert tokens[0].text == "my_var2"

    def test_number(self):
        tokens = tokenize("123")
        assert tokens[0].kind == "NUMBER"

    def test_two_char_operators_greedy(self):
        assert texts("a <= b") == ["a", "<=", "b"]
        assert texts("a << b") == ["a", "<<", "b"]
        assert texts("a != b") == ["a", "!=", "b"]

    def test_adjacent_single_char_ops(self):
        assert texts("a<b") == ["a", "<", "b"]

    def test_comment_skipped(self):
        assert texts("x = 1; # a comment\ny = 2;") == [
            "x", "=", "1", ";", "y", "=", "2", ";",
        ]

    def test_line_and_column_tracking(self):
        tokens = tokenize("x = 1;\n  y = 2;")
        y = next(t for t in tokens if t.text == "y")
        assert y.line == 2
        assert y.column == 3

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == "EOF"

    def test_bad_character_raises_with_position(self):
        with pytest.raises(LexError) as info:
            tokenize("x = $;")
        assert "line 1" in str(info.value)

    def test_whitespace_only(self):
        assert kinds("   \n\t ") == ["EOF"]


class TestAsciiOnly:
    """The lexical syntax is ASCII (docs/LANGUAGE.md): any other
    character outside a comment is a positioned :class:`LexError`."""

    @pytest.mark.parametrize(
        "source, char, line, column",
        [
            ("é = 1;", "é", 1, 1),
            ("x = ٣;", "٣", 1, 5),
            ("x = ²;", "²", 1, 5),
            ("x = 1;\n  yé = 2;", "é", 2, 4),
            ("x = 1\u00a0;", "\u00a0", 1, 6),  # no-break space
        ],
    )
    def test_non_ascii_is_a_lex_error(self, source, char, line, column):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert str(info.value) == (
            f"unexpected character {char!r} (line {line}, column {column})"
        )
        assert (info.value.line, info.value.column) == (line, column)

    def test_non_ascii_reaches_load_cfg_as_a_lex_error(self):
        from repro.api import SourceError, load_cfg

        with pytest.raises(SourceError, match=r"LexError: .*column 5") as info:
            load_cfg("x = ²;")
        assert isinstance(info.value.__cause__, LexError)

    def test_non_ascii_in_comments_is_legal(self):
        assert texts("x = 1; # café ٣²\ny = 2; #é") == [
            "x", "=", "1", ";", "y", "=", "2", ";",
        ]

    def test_eof_after_trailing_comment_sits_at_the_hash(self):
        eof = tokenize("x = 1;  # done")[-1]
        assert (eof.kind, eof.line, eof.column) == ("EOF", 1, 9)

    def test_blanks_at_end_of_input(self):
        eof = tokenize("x;\n \t\r\n  ")[-1]
        assert (eof.line, eof.column) == (3, 3)
