"""Tokeniser for the mini-language.

Token kinds: ``IDENT``, ``NUMBER``, ``OP`` (operators and punctuation),
``KEYWORD`` (``if``, ``else``, ``while``, ``do``, ``repeat``, ``skip``,
``break``, ``continue``) and the synthetic ``EOF``.  ``#`` starts a
comment to end of line.  The lexical syntax is ASCII: identifiers are
``[A-Za-z_][A-Za-z0-9_]*``, numbers ``[0-9]+``; any other character
outside a comment is a :class:`LexError`.

:func:`scan` is the one lexer.  A single compiled pattern, run by
``finditer``, consumes the run of blanks in front of each token and
then one comment, identifier, number or operator, or else the one
character that makes the input invalid.  The scan comes back as three
parallel lists — kinds, texts and start offsets — which the parser
indexes directly.  Source positions are not tracked while scanning:
:func:`position` turns an offset into a 1-based ``(line, column)`` only
when an error is raised or a public :class:`Token` is built.

There is deliberately no per-character Python loop: in generated
programs most characters are indentation blanks, and stepping through
them one at a time (with a prefix test per operator at every token)
used to cost more than the rest of loading put together.  The regex
engine skips blanks and picks the token class in C.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.lang.errors import LexError

KEYWORDS = frozenset(
    {"if", "else", "while", "do", "repeat", "skip", "break", "continue"}
)

#: Operators and punctuation.  Where a two-character form and a prefix
#: of it both match, the two-character form wins.
_OPERATORS = (
    "<<", ">>", "<=", ">=", "==", "!=",
    "+", "-", "*", "/", "%", "<", ">", "&", "|", "^", "~", "!",
    "=", ";", "(", ")", "{", "}", ",",
)


def _operator_pattern(operators: Tuple[str, ...]) -> str:
    """The two-character forms first, then one class for the rest."""
    assert all(1 <= len(op) <= 2 for op in operators)
    pairs = [re.escape(op) for op in operators if len(op) == 2]
    singles = "".join(re.escape(op) for op in operators if len(op) == 1)
    return "|".join(pairs + [f"[{singles}]"])


#: Group numbers of :data:`_TOKEN`.
_COMMENT, _WORD, _NUMBER, _OP, _BAD = 1, 2, 3, 4, 5

#: Blanks, then at most one token.  The token is optional so the blanks
#: at the end of the input match too, in one pass.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(#[^\n]*)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([0-9]+)"
    rf"|({_operator_pattern(_OPERATORS)})"
    r"|(.)"
    r")?",
    re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def _line_starts(source: str) -> List[int]:
    return [0] + [match.end() for match in re.finditer("\n", source)]


def _locate(line_starts: List[int], offset: int) -> Tuple[int, int]:
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def position(source: str, offset: int) -> Tuple[int, int]:
    """1-based ``(line, column)`` of *offset* in *source*."""
    return _locate(_line_starts(source), offset)


def scan(source: str) -> Tuple[List[str], List[str], List[int]]:
    """``(kinds, texts, starts)`` of *source*'s tokens, ``EOF`` last.

    Raises :class:`LexError` at the first character no token matches.
    """
    kinds: List[str] = []
    texts: List[str] = []
    starts: List[int] = []
    add_kind, add_text, add_start = kinds.append, texts.append, starts.append
    # The end-of-input token sits where the last line's column counting
    # stopped: at a trailing comment's ``#`` if there is one.
    end = len(source)
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group == _OP:
            add_kind("OP")
            add_text(match[_OP])
            add_start(match.start(_OP))
        elif group == _WORD:
            text = match[_WORD]
            add_kind("KEYWORD" if text in KEYWORDS else "IDENT")
            add_text(text)
            add_start(match.start(_WORD))
        elif group == _NUMBER:
            add_kind("NUMBER")
            add_text(match[_NUMBER])
            add_start(match.start(_NUMBER))
        elif group == _COMMENT:
            if match.end() == len(source):
                end = match.start(_COMMENT)
        elif group == _BAD:
            offset = match.start(_BAD)
            raise LexError(
                f"unexpected character {source[offset]!r}",
                *position(source, offset),
            )
    add_kind("EOF")
    add_text("")
    add_start(end)
    return kinds, texts, starts


def tokenize(source: str) -> List[Token]:
    """Tokenise *source*; raises :class:`LexError` on bad characters."""
    kinds, texts, starts = scan(source)
    line_starts = _line_starts(source)
    return [
        Token(kind, text, *_locate(line_starts, start))
        for kind, text, start in zip(kinds, texts, starts)
    ]
