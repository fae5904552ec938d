"""Unit tests for the expression universe."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import AB, CD, diamond

from repro.analysis.universe import ExprUniverse
from repro.dataflow.bitvec import BitVector
from repro.ir.expr import BinExpr, Const, UnaryExpr, Var, expr_vars

NAMES = ("a", "b", "c", "d", "e")

atoms = st.one_of(
    st.sampled_from(NAMES).map(Var),
    st.integers(min_value=0, max_value=3).map(Const),
)
#: Candidate computations: one operator over atoms (``a + a`` included).
computations = st.one_of(
    st.builds(BinExpr, st.sampled_from("+-*"), atoms, atoms),
    st.builds(UnaryExpr, st.just("-"), atoms),
)


def _brute_kills(universe, var):
    """The definition: every expression reading *var*."""
    return BitVector.of(
        universe.width,
        (i for i, expr in universe.enumerate() if var in expr_vars(expr)),
    )


class TestUniverse:
    def test_of_cfg_collects_candidates(self):
        universe = ExprUniverse.of_cfg(diamond())
        assert AB in universe
        assert BinExpr("<", Var("a"), Var("b")) in universe
        assert len(universe) == 2

    def test_first_occurrence_order(self):
        universe = ExprUniverse.of_cfg(diamond())
        # cond's "a < b" appears before left's "a + b".
        assert universe.index_of(BinExpr("<", Var("a"), Var("b"))) == 0
        assert universe.index_of(AB) == 1

    def test_add_is_idempotent(self):
        universe = ExprUniverse()
        first = universe.add(AB)
        second = universe.add(AB)
        assert first == second
        assert len(universe) == 1

    def test_add_rejects_non_computation(self):
        with pytest.raises(ValueError):
            ExprUniverse().add(Var("x"))  # type: ignore[arg-type]

    def test_vector_roundtrip(self):
        universe = ExprUniverse([AB, CD])
        vec = universe.vector([CD])
        assert universe.exprs_of(vec) == [CD]

    def test_vector_width(self):
        universe = ExprUniverse([AB, CD])
        assert universe.empty().width == 2
        assert universe.full().count() == 2

    def test_exprs_of_checks_width(self):
        universe = ExprUniverse([AB])
        with pytest.raises(ValueError):
            universe.exprs_of(BitVector.empty(5))

    def test_invalidated_by(self):
        universe = ExprUniverse([AB, CD, UnaryExpr("-", Var("a"))])
        hit = universe.invalidated_by("a")
        assert universe.exprs_of(hit) == [AB, UnaryExpr("-", Var("a"))]

    def test_invalidated_by_unrelated_var(self):
        universe = ExprUniverse([AB])
        assert not universe.invalidated_by("z")

    @settings(max_examples=60, deadline=None)
    @given(exprs=st.lists(computations, max_size=12))
    def test_invalidated_by_matches_definition(self, exprs):
        universe = ExprUniverse(exprs)
        for var in NAMES + ("unused",):
            assert universe.invalidated_by(var) == _brute_kills(universe, var)

    @settings(max_examples=60, deadline=None)
    @given(
        first=st.lists(computations, max_size=6),
        later=st.lists(computations, min_size=1, max_size=6),
    )
    def test_kill_masks_follow_universe_growth(self, first, later):
        universe = ExprUniverse(first)
        for var in NAMES:
            universe.invalidated_by(var)  # fill the table at the old width
        for expr in later:
            universe.add(expr)
            for var in NAMES:
                kills = universe.invalidated_by(var)
                assert kills.width == universe.width
                assert kills == _brute_kills(universe, var)

    def test_temp_names_unique_and_dotted(self):
        universe = ExprUniverse([AB, CD])
        names = {universe.temp_name(e) for e in universe}
        assert len(names) == 2
        assert all("." in name for name in names)

    def test_temp_name_collision_safety(self):
        tricky_a = BinExpr("+", Var("a_plus_b"), Var("c"))
        tricky_b = BinExpr("+", Var("a"), Var("b_plus_c"))
        universe = ExprUniverse([tricky_a, tricky_b])
        assert universe.temp_name(tricky_a) != universe.temp_name(tricky_b)

    def test_describe(self):
        universe = ExprUniverse([AB])
        assert universe.describe() == "{0:a + b}"
        assert universe.describe(universe.empty()) == "{}"
