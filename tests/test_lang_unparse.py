"""Unparser tests, including the parse/unparse round-trip property."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ir.expr import BINARY_OPS, BinExpr, Const, UnaryExpr, Var
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.unparse import unparse, unparse_expr

quick = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- hypothesis strategies over parser-canonical ASTs -----------------------

names = st.sampled_from(["a", "b", "count", "x_1", "tmp"])
atoms = st.one_of(
    names.map(Var),
    st.integers(min_value=-50, max_value=99).map(Const),
)
symbolic_binops = st.sampled_from(
    [op for op in BINARY_OPS if not op.isalpha()]
)
exprs = st.one_of(
    atoms,
    st.builds(BinExpr, symbolic_binops, atoms, atoms),
    st.builds(BinExpr, st.sampled_from(["min", "max"]), atoms, atoms),
    st.builds(UnaryExpr, st.sampled_from(["!", "~"]), names.map(Var)),
    st.builds(UnaryExpr, st.just("-"), names.map(Var)),
    st.builds(UnaryExpr, st.just("abs"), atoms),
)

assigns = st.builds(ast.AssignStmt, names, exprs)


def statements(depth: int):
    if depth <= 0:
        return st.one_of(assigns, st.just(ast.SkipStmt()))
    inner = st.lists(statements(depth - 1), min_size=1, max_size=3)
    return st.one_of(
        assigns,
        st.just(ast.SkipStmt()),
        st.builds(
            ast.IfStmt,
            exprs,
            inner.map(tuple),
            st.one_of(st.just(()), inner.map(tuple)),
        ),
        st.builds(ast.WhileStmt, exprs, inner.map(tuple)),
        st.builds(ast.DoWhileStmt, exprs, inner.map(tuple)),
        st.builds(ast.RepeatStmt, atoms, inner.map(tuple)),
    )


programs = st.lists(statements(2), min_size=0, max_size=5).map(
    lambda body: ast.Program(tuple(body))
)


class TestUnparseExpr:
    def test_binary(self):
        assert unparse_expr(BinExpr("+", Var("a"), Const(2))) == "a + 2"

    def test_min(self):
        assert unparse_expr(BinExpr("min", Var("a"), Var("b"))) == "min(a, b)"

    def test_unary(self):
        assert unparse_expr(UnaryExpr("!", Var("p"))) == "!p"

    def test_abs(self):
        assert unparse_expr(UnaryExpr("abs", Const(-3))) == "abs(-3)"


class TestUnparseProgram:
    def test_small_program_text(self):
        program = ast.Program(
            (
                ast.AssignStmt("x", BinExpr("+", Var("a"), Var("b"))),
                ast.WhileStmt(
                    Var("p"),
                    (ast.AssignStmt("x", BinExpr("-", Var("x"), Const(1))),),
                ),
            )
        )
        assert unparse(program) == (
            "x = a + b;\n"
            "while (p) {\n"
            "    x = x - 1;\n"
            "}\n"
        )

    def test_empty_program(self):
        assert unparse(ast.Program(())) == ""

    @quick
    @given(programs)
    def test_roundtrip_is_a_fixpoint(self, program):
        text = unparse(program)
        reparsed = parse_program(text)
        # AST line numbers differ, so compare via the textual fixpoint.
        assert unparse(reparsed) == text

    @quick
    @given(programs)
    @example(  # repeat (99) { a = a * a; }: squaring stalls an interpreter
        ast.Program(
            (
                ast.RepeatStmt(
                    Const(99),
                    (ast.AssignStmt("a", BinExpr("*", Var("a"), Var("a"))),),
                ),
            )
        )
    )
    def test_roundtrip_preserves_semantics(self, program):
        # The reparsed program must lower to the very same CFG, which
        # implies equal behaviour on every input.  Running both in the
        # interpreter instead stalls on draws like the example above,
        # where each iteration doubles the bit length of ``a``.
        from repro.lang.lower import lower_program
        from repro.obs.fingerprint import cfg_fingerprint

        original = lower_program(program)
        reparsed = lower_program(parse_program(unparse(program)))
        assert str(reparsed) == str(original)
        assert cfg_fingerprint(reparsed) == cfg_fingerprint(original)

    def test_generated_workloads_unparse(self):
        from repro.bench.generators import random_program

        for seed in range(5):
            program = random_program(seed)
            text = unparse(program)
            assert unparse(parse_program(text)) == text
