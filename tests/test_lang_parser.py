"""Unit tests for the parser."""

import pytest

from repro.api import SourceError, load_cfg
from repro.ir.expr import BinExpr, Const, UnaryExpr, Var
from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.lower import compile_program
from repro.lang.parser import MAX_LITERAL_DIGITS, MAX_NESTING, parse_program


class TestStatements:
    def test_assignment(self):
        program = parse_program("x = a + b;")
        stmt = program.body[0]
        assert isinstance(stmt, ast.AssignStmt)
        assert stmt.target == "x"
        assert stmt.expr == BinExpr("+", Var("a"), Var("b"))

    def test_copy_assignment(self):
        stmt = parse_program("x = y;").body[0]
        assert stmt.expr == Var("y")

    def test_constant_assignment(self):
        stmt = parse_program("x = 5;").body[0]
        assert stmt.expr == Const(5)

    def test_negative_constant(self):
        stmt = parse_program("x = -5;").body[0]
        assert stmt.expr == Const(-5)

    def test_unary_negation_of_var(self):
        stmt = parse_program("x = -y;").body[0]
        assert stmt.expr == UnaryExpr("-", Var("y"))

    def test_skip(self):
        assert isinstance(parse_program("skip;").body[0], ast.SkipStmt)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError, match="';'"):
            parse_program("x = 1")

    def test_if_without_else(self):
        stmt = parse_program("if (p) { x = 1; }").body[0]
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.cond == Var("p")
        assert stmt.else_body == ()

    def test_if_with_else(self):
        stmt = parse_program("if (a < b) { x = 1; } else { x = 2; }").body[0]
        assert stmt.cond == BinExpr("<", Var("a"), Var("b"))
        assert len(stmt.else_body) == 1

    def test_while(self):
        stmt = parse_program("while (i < n) { i = i + 1; }").body[0]
        assert isinstance(stmt, ast.WhileStmt)
        assert len(stmt.body) == 1

    def test_do_while(self):
        stmt = parse_program("do { i = i + 1; } while (i < n);").body[0]
        assert isinstance(stmt, ast.DoWhileStmt)

    def test_repeat(self):
        stmt = parse_program("repeat (3) { x = x + 1; }").body[0]
        assert isinstance(stmt, ast.RepeatStmt)
        assert stmt.count == Const(3)

    def test_nested_blocks(self):
        program = parse_program(
            "while (p) { if (q) { x = 1; } else { y = 2; } }"
        )
        loop = program.body[0]
        assert isinstance(loop.body[0], ast.IfStmt)

    def test_unterminated_block(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_program("if (p) { x = 1;")


class TestExpressions:
    def test_function_min(self):
        stmt = parse_program("x = min(a, b);").body[0]
        assert stmt.expr == BinExpr("min", Var("a"), Var("b"))

    def test_function_abs(self):
        stmt = parse_program("x = abs(a);").body[0]
        assert stmt.expr == UnaryExpr("abs", Var("a"))

    def test_function_as_variable_rejected(self):
        # `min` is consumed as a call head, so the parser demands '('.
        with pytest.raises(ParseError, match=r"expected '\('"):
            parse_program("x = min + 1;")
        # In operand position the dedicated error fires.
        with pytest.raises(ParseError, match="function"):
            parse_program("x = a + min;")

    def test_shift(self):
        stmt = parse_program("x = a << 2;").body[0]
        assert stmt.expr == BinExpr("<<", Var("a"), Const(2))

    def test_bitwise_not(self):
        stmt = parse_program("x = ~a;").body[0]
        assert stmt.expr == UnaryExpr("~", Var("a"))

    def test_logical_not(self):
        stmt = parse_program("x = !p;").body[0]
        assert stmt.expr == UnaryExpr("!", Var("p"))

    def test_compound_expression_rejected(self):
        # Single-operator RHS only: a + b + c is not in the language.
        with pytest.raises(ParseError):
            parse_program("x = a + b + c;")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_program("x = 1;\nfoo")
        assert "line 2" in str(info.value)


class TestLimits:
    """Hostile input stays a positioned ParseError on every Python."""

    @pytest.mark.parametrize(
        "source, column",
        [
            ("x = " + "1" * 5000 + ";", 5),
            ("x = -" + "1" * 5000 + ";", 6),
            ("x = a + " + "7" * (MAX_LITERAL_DIGITS + 1) + ";", 9),
            ("repeat (" + "9" * 5000 + ") { x = 1; }", 9),
        ],
    )
    def test_overlong_literal_is_positioned(self, source, column):
        with pytest.raises(ParseError, match="the limit is 4300") as info:
            parse_program(source)
        assert (info.value.line, info.value.column) == (1, column)

    def test_literal_at_the_limit_loads(self):
        digits = "9" * MAX_LITERAL_DIGITS
        cfg = load_cfg(f"x = -{digits};")
        assert f"x = -{digits}" in str(cfg)

    def test_overlong_literal_through_load_cfg(self):
        with pytest.raises(SourceError, match=r"ParseError: .*column 5"):
            load_cfg("x = " + "1" * 5000 + ";")

    def test_deep_nesting_is_positioned(self):
        source = "if (a) {" * 3000 + "}" * 3000
        with pytest.raises(ParseError, match="deeper than 100") as info:
            parse_program(source)
        # The offending '{' opens level 101.
        assert (info.value.line, info.value.column) == (1, 8 * 100 + 8)
        with pytest.raises(SourceError, match="ParseError: blocks nest"):
            load_cfg(source)

    @pytest.mark.parametrize(
        "opener", ["if (a) {", "while (a) {", "repeat (2) {"]
    )
    def test_nesting_at_the_limit_loads_and_lowers(self, opener):
        source = opener * MAX_NESTING + "x = x + 1;" + "}" * MAX_NESTING
        cfg = compile_program(source)
        assert "x = x + 1" in str(cfg)
        with pytest.raises(ParseError, match="deeper than 100"):
            parse_program(opener + source + "}")

    def test_else_and_do_blocks_count_too(self):
        nested = "x = 1;"
        for _ in range(MAX_NESTING):
            nested = "if (a) { skip; } else { " + nested + " }"
        parse_program(nested)
        with pytest.raises(ParseError, match="deeper than 100"):
            parse_program("do { " + nested + " } while (a);")
