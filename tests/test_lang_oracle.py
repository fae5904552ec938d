"""The front end against its reference implementation.

The production lexer is one compiled pattern and the parser indexes the
scan's parallel lists (:mod:`repro.lang.lexer`, :mod:`repro.lang.parser`).
The character-loop lexer and the token-object recursive-descent parser
they replaced are kept here as the oracle.  On ASCII input the two must
agree exactly: the same token stream, the same error class, message,
line and column (lexical errors before grammatical ones), the same AST
including statement lines, and the same lowered CFG.  The inputs are
strings drawn from token fragments, mutated corpus programs and both
pinned benchmark corpora.
"""

from __future__ import annotations

import json
import os
from typing import List, Tuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ir.expr import (
    BINARY_OPS,
    Atom,
    BinExpr,
    Const,
    Expr,
    UnaryExpr,
    Var,
)
from repro.lang import ast
from repro.lang.errors import LangError, LexError, ParseError
from repro.lang.lexer import Token, tokenize
from repro.lang.lower import lower_program
from repro.lang.parser import parse_program

# ---------------------------------------------------------------------------
# Oracle: the character-loop lexer and the token-object parser, unchanged
# ---------------------------------------------------------------------------

KEYWORDS = frozenset(
    {"if", "else", "while", "do", "repeat", "skip", "break", "continue"}
)

#: Multi-character operators, longest first so matching is greedy.
_OPERATORS = (
    "<<", ">>", "<=", ">=", "==", "!=",
    "+", "-", "*", "/", "%", "<", ">", "&", "|", "^", "~", "!",
    "=", ";", "(", ")", "{", "}", ",",
)


def reference_tokenize(source: str) -> List[Token]:
    """The character-loop lexer the compiled scanner replaced."""
    tokens: List[Token] = []
    line, column = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(Token("NUMBER", source[start:i], line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "KEYWORD" if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, line, column))
            column += i - start
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("OP", op, line, column))
                i += len(op)
                column += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("EOF", "", line, column))
    return tokens


_BINARY = frozenset(op for op in BINARY_OPS if not op.isalpha())
_UNARY = frozenset({"-", "!", "~"})
_FUNCTIONS = frozenset({"min", "max", "abs"})


class _ReferenceParser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing --------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _expect(self, kind: str, text: str = "") -> Token:
        token = self._cur
        if token.kind != kind or (text and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _at(self, kind: str, text: str = "") -> bool:
        token = self._cur
        return token.kind == kind and (not text or token.text == text)

    # -- grammar ----------------------------------------------------------

    def program(self) -> ast.Program:
        body = []
        while not self._at("EOF"):
            body.append(self.statement())
        return ast.Program(tuple(body))

    def block(self) -> Tuple[ast.Stmt, ...]:
        self._expect("OP", "{")
        body = []
        while not self._at("OP", "}"):
            if self._at("EOF"):
                raise ParseError("unterminated block", self._cur.line, self._cur.column)
            body.append(self.statement())
        self._expect("OP", "}")
        return tuple(body)

    def statement(self) -> ast.Stmt:
        token = self._cur
        if token.kind == "KEYWORD":
            if token.text == "skip":
                self._advance()
                self._expect("OP", ";")
                return ast.SkipStmt(token.line)
            if token.text == "break":
                self._advance()
                self._expect("OP", ";")
                return ast.BreakStmt(token.line)
            if token.text == "continue":
                self._advance()
                self._expect("OP", ";")
                return ast.ContinueStmt(token.line)
            if token.text == "if":
                self._advance()
                self._expect("OP", "(")
                cond = self.expression()
                self._expect("OP", ")")
                then_body = self.block()
                else_body: Tuple[ast.Stmt, ...] = ()
                if self._at("KEYWORD", "else"):
                    self._advance()
                    else_body = self.block()
                return ast.IfStmt(cond, then_body, else_body, token.line)
            if token.text == "while":
                self._advance()
                self._expect("OP", "(")
                cond = self.expression()
                self._expect("OP", ")")
                return ast.WhileStmt(cond, self.block(), token.line)
            if token.text == "do":
                self._advance()
                body = self.block()
                self._expect("KEYWORD", "while")
                self._expect("OP", "(")
                cond = self.expression()
                self._expect("OP", ")")
                self._expect("OP", ";")
                return ast.DoWhileStmt(cond, body, token.line)
            if token.text == "repeat":
                self._advance()
                self._expect("OP", "(")
                count = self.expression()
                self._expect("OP", ")")
                return ast.RepeatStmt(count, self.block(), token.line)
            raise ParseError(
                f"unexpected keyword {token.text!r}", token.line, token.column
            )
        if token.kind == "IDENT":
            name = self._advance().text
            self._expect("OP", "=")
            expr = self.expression()
            self._expect("OP", ";")
            return ast.AssignStmt(name, expr, token.line)
        raise ParseError(
            f"unexpected {token.text or 'end of input'!r}", token.line, token.column
        )

    def atom(self) -> Atom:
        token = self._cur
        if token.kind == "NUMBER":
            self._advance()
            return Const(int(token.text))
        if token.kind == "OP" and token.text == "-" and (
            self._tokens[self._pos + 1].kind == "NUMBER"
        ):
            self._advance()
            number = self._advance()
            return Const(-int(number.text))
        if token.kind == "IDENT":
            if token.text in _FUNCTIONS:
                raise ParseError(
                    f"{token.text!r} is a function, not a variable",
                    token.line,
                    token.column,
                )
            self._advance()
            return Var(token.text)
        raise ParseError(
            f"expected an operand, found {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )

    def expression(self) -> Expr:
        token = self._cur
        # Function call forms.
        if token.kind == "IDENT" and token.text in _FUNCTIONS:
            name = self._advance().text
            self._expect("OP", "(")
            first = self.atom()
            if name == "abs":
                self._expect("OP", ")")
                return UnaryExpr("abs", first)
            self._expect("OP", ",")
            second = self.atom()
            self._expect("OP", ")")
            return BinExpr(name, first, second)
        # Unary operators (negative literals handled inside atom()).
        if token.kind == "OP" and token.text in _UNARY:
            if not (
                token.text == "-" and self._tokens[self._pos + 1].kind == "NUMBER"
            ):
                op = self._advance().text
                return UnaryExpr(op, self.atom())
        left = self.atom()
        if self._at("OP") and self._cur.text in _BINARY:
            op = self._advance().text
            right = self.atom()
            return BinExpr(op, left, right)
        return left


def reference_parse(source: str) -> ast.Program:
    """The token-object recursive-descent parser the index-based one
    replaced."""
    return _ReferenceParser(reference_tokenize(source)).program()


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(REPO, "tests", "corpus")


def _error(exc: LangError) -> Tuple:
    return ("error", type(exc).__name__, str(exc), exc.line, exc.column)


def token_outcome(tokenize_fn, source: str):
    try:
        return ("tokens", tokenize_fn(source))
    except LexError as exc:
        return _error(exc)


def program_outcome(parse_fn, source: str):
    """``(parse outcome, lowering outcome)`` of *source*."""
    try:
        program = parse_fn(source)
    except (LexError, ParseError) as exc:
        return _error(exc), None
    try:
        lowered = str(lower_program(program))
    except LangError as exc:
        lowered = _error(exc)
    return ("ast", program), lowered


def assert_same_front_end(source: str) -> None:
    assert token_outcome(tokenize, source) == token_outcome(
        reference_tokenize, source
    ), source
    assert program_outcome(parse_program, source) == program_outcome(
        reference_parse, source
    ), source


def corpus_sources() -> List[str]:
    sources = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        with open(os.path.join(CORPUS_DIR, name)) as handle:
            sources.append(handle.read())
    return sources


def pinned_sources(workload: str) -> List[str]:
    """A pinned benchmark corpus, minted from ``perfbench/workloads.json``."""
    from repro.corpus import generate_source, profile_config

    with open(os.path.join(REPO, "perfbench", "workloads.json")) as handle:
        spec = json.load(handle)["workloads"][workload]
    lo, hi = spec["seed_range"]
    sources = []
    for entry in spec["profiles"]:
        config = profile_config(
            entry["profile"], entry["statements"], entry["max_depth"]
        )
        sources.extend(generate_source(seed, config) for seed in range(lo, hi))
    assert len(sources) == spec["programs"]
    return sources


#: ASCII fragments the random inputs are drawn from: every keyword and
#: operator, identifiers (including the function names), numbers,
#: blanks, newlines, comments and characters no token matches.
FRAGMENTS = sorted(KEYWORDS) + list(_OPERATORS) + [
    "a", "b", "x_1", "_t", "min", "max", "abs", "EOF", "iff", "do2",
    "0", "7", "42", "007", "-1",
    " ", "  ", "\t", "\r", "\n", "\n    ", "\r\n",
    "#", "# note", "# x = 1;\n", "#}",
    "$", "@", "`", "\x0c", "'", '"', ".",
]

fragment_sources = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(
    "".join
)

#: Well-formed statements, so the random inputs also reach deep into the
#: grammar and the lowering.
STATEMENTS = [
    "x = a + b;", "y = -3;", "z = !a;", "u = min(a, -2);", "v = abs(b);",
    "skip;", "break;", "continue;", "if (a < b) {", "} else {", "}",
    "while (x) {", "do {", "} while (a != 0);", "repeat (3) {",
]

statement_sources = st.lists(
    st.tuples(st.sampled_from(STATEMENTS), st.sampled_from(FRAGMENTS)),
    max_size=12,
).map(lambda pairs: "\n".join(stmt + frag for stmt, frag in pairs))


@st.composite
def mutated_corpus_sources(draw):
    """A corpus program with one fragment inserted or one span deleted."""
    source = draw(st.sampled_from(corpus_sources()))
    at = draw(st.integers(0, len(source)))
    if draw(st.booleans()):
        return source[:at] + draw(st.sampled_from(FRAGMENTS)) + source[at:]
    span = draw(st.integers(1, 12))
    return source[:at] + source[at + span:]


differential = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestOracleDifferential:
    @differential
    @given(fragment_sources)
    @example("x = 1; # trailing comment")
    @example("x = 1;\n# comment\n\n   ")
    @example("if (p) { x = 1;   ")
    @example("x = a <<= b;")
    @example("x = 1;\n\tbreak;\n")
    @example("x = $ + @;")
    def test_fragments(self, source):
        assert_same_front_end(source)

    @differential
    @given(statement_sources)
    def test_statement_sequences(self, source):
        assert_same_front_end(source)

    @differential
    @given(mutated_corpus_sources())
    def test_mutated_corpus(self, source):
        assert_same_front_end(source)

    def test_checked_in_corpus(self):
        for source in corpus_sources():
            assert_same_front_end(source)

    def test_pinned_benchmark_corpora(self):
        for workload in ("lcm-large", "pipeline-small"):
            for source in pinned_sources(workload):
                assert_same_front_end(source)
