"""Recursive-descent parser for the mini-language.

Grammar (EBNF)::

    program   := stmt*
    stmt      := IDENT '=' expr ';'
               | 'skip' ';' | 'break' ';' | 'continue' ';'
               | 'if' '(' expr ')' block ('else' block)?
               | 'while' '(' expr ')' block
               | 'do' block 'while' '(' expr ')' ';'
               | 'repeat' '(' expr ')' block
    block     := '{' stmt* '}'
    expr      := unop atom | atom (binop atom)? | fn '(' atom (',' atom)? ')'
    atom      := IDENT | NUMBER | '-' NUMBER

Expressions are single-operator by construction, matching the IR.

The parser reads the lexer's parallel ``kinds`` / ``texts`` / ``starts``
lists (:func:`repro.lang.lexer.scan`) by index; no token objects are
built.  Every real token has non-empty text and only ``EOF`` has the
empty text, and an operator or keyword text belongs to exactly one
kind, so most tests compare the text alone.  A statement's ``line`` is
found by counting newlines forward from the previous statement's
start, and an error's line and column are computed from the offending
token's offset only when it is raised.

Two documented limits keep hostile input a positioned
:class:`~repro.lang.errors.ParseError`: a number literal has at most
:data:`MAX_LITERAL_DIGITS` digits (Python's own int-string limit on
3.11+, enforced here on every version), and blocks nest at most
:data:`MAX_NESTING` deep (deeper source would overflow the recursive
descent).
"""

from __future__ import annotations

from typing import Tuple

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
from repro.lang.errors import ParseError
from repro.lang.lexer import position, scan

_BINARY = frozenset(op for op in BINARY_OPS if not op.isalpha())
_UNARY = frozenset({"-", "!", "~"})
_FUNCTIONS = frozenset({"min", "max", "abs"})

#: The most digits a number literal may have.
MAX_LITERAL_DIGITS = 4300

#: The deepest blocks (``{ ... }``) may nest.
MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str) -> None:
        self._source = source
        self._kinds, self._texts, self._starts = scan(source)
        self._pos = 0
        self._depth = 0
        # Line of the source offset ``_line_offset``.
        self._line = 1
        self._line_offset = 0

    # -- token plumbing --------------------------------------------------

    def _error(self, message: str, index: int) -> ParseError:
        line, column = position(self._source, self._starts[index])
        return ParseError(message, line, column)

    def _found(self, index: int) -> str:
        return repr(self._texts[index] or "end of input")

    def _expect(self, text: str) -> None:
        pos = self._pos
        if self._texts[pos] != text:
            raise self._error(
                f"expected {text!r}, found {self._found(pos)}", pos
            )
        self._pos = pos + 1

    def _line_at(self, index: int) -> int:
        """Line of token *index*; tokens are asked for in source order."""
        start = self._starts[index]
        self._line += self._source.count("\n", self._line_offset, start)
        self._line_offset = start
        return self._line

    # -- grammar ----------------------------------------------------------

    def program(self) -> ast.Program:
        body = []
        kinds = self._kinds
        while kinds[self._pos] != "EOF":
            body.append(self.statement())
        return ast.Program(tuple(body))

    def block(self) -> Tuple[ast.Stmt, ...]:
        if self._depth == MAX_NESTING:
            raise self._error(
                f"blocks nest deeper than {MAX_NESTING} levels", self._pos
            )
        self._expect("{")
        self._depth += 1
        body = []
        kinds, texts = self._kinds, self._texts
        while texts[self._pos] != "}":
            if kinds[self._pos] == "EOF":
                raise self._error("unterminated block", self._pos)
            body.append(self.statement())
        self._pos += 1
        self._depth -= 1
        return tuple(body)

    def statement(self) -> ast.Stmt:
        pos = self._pos
        kind = self._kinds[pos]
        text = self._texts[pos]
        if kind == "IDENT":
            line = self._line_at(pos)
            self._pos = pos + 1
            self._expect("=")
            expr = self.expression()
            self._expect(";")
            return ast.AssignStmt(text, expr, line)
        if kind != "KEYWORD":
            raise self._error(f"unexpected {self._found(pos)}", pos)
        line = self._line_at(pos)
        self._pos = pos + 1
        if text == "if":
            self._expect("(")
            cond = self.expression()
            self._expect(")")
            then_body = self.block()
            else_body: Tuple[ast.Stmt, ...] = ()
            if self._texts[self._pos] == "else":
                self._pos += 1
                else_body = self.block()
            return ast.IfStmt(cond, then_body, else_body, line)
        if text == "while":
            self._expect("(")
            cond = self.expression()
            self._expect(")")
            return ast.WhileStmt(cond, self.block(), line)
        if text == "repeat":
            self._expect("(")
            count = self.expression()
            self._expect(")")
            return ast.RepeatStmt(count, self.block(), line)
        if text == "do":
            body = self.block()
            self._expect("while")
            self._expect("(")
            cond = self.expression()
            self._expect(")")
            self._expect(";")
            return ast.DoWhileStmt(cond, body, line)
        if text == "skip":
            self._expect(";")
            return ast.SkipStmt(line)
        if text == "break":
            self._expect(";")
            return ast.BreakStmt(line)
        if text == "continue":
            self._expect(";")
            return ast.ContinueStmt(line)
        raise self._error(f"unexpected keyword {text!r}", pos)

    def _number(self, index: int) -> int:
        text = self._texts[index]
        if len(text) > MAX_LITERAL_DIGITS:
            raise self._error(
                f"number literal has {len(text)} digits; the limit is "
                f"{MAX_LITERAL_DIGITS}",
                index,
            )
        return int(text)

    def atom(self) -> Atom:
        pos = self._pos
        kind = self._kinds[pos]
        text = self._texts[pos]
        if kind == "NUMBER":
            self._pos = pos + 1
            return Const(self._number(pos))
        if text == "-" and self._kinds[pos + 1] == "NUMBER":
            self._pos = pos + 2
            return Const(-self._number(pos + 1))
        if kind == "IDENT":
            if text in _FUNCTIONS:
                raise self._error(
                    f"{text!r} is a function, not a variable", pos
                )
            self._pos = pos + 1
            return Var(text)
        raise self._error(
            f"expected an operand, found {self._found(pos)}", pos
        )

    def expression(self) -> Expr:
        pos = self._pos
        text = self._texts[pos]
        # Function call forms (only identifiers spell these names).
        if text in _FUNCTIONS:
            self._pos = pos + 1
            self._expect("(")
            first = self.atom()
            if text == "abs":
                self._expect(")")
                return UnaryExpr("abs", first)
            self._expect(",")
            second = self.atom()
            self._expect(")")
            return BinExpr(text, first, second)
        # Unary operators (negative literals handled inside atom()).
        if text in _UNARY and not (
            text == "-" and self._kinds[pos + 1] == "NUMBER"
        ):
            self._pos = pos + 1
            return UnaryExpr(text, self.atom())
        left = self.atom()
        op = self._texts[self._pos]
        if op in _BINARY:
            self._pos += 1
            return BinExpr(op, left, self.atom())
        return left


def parse_program(source: str) -> ast.Program:
    """Parse *source* into an AST; raises :class:`LexError` on bad
    characters and :class:`ParseError` on grammar errors."""
    return _Parser(source).program()
