"""Unit tests for the transformation engine."""

import pytest

from tests.helpers import AB, diamond, straight_line

from repro.core.placement import Placement, PlacementError
from repro.core.transform import apply_placements, eliminate_dead_code
from repro.core.optimality import check_equivalence
from repro.ir.builder import CFGBuilder
from repro.ir.expr import BinExpr, Var
from repro.ir.validate import validate_cfg


def diamond_plan():
    return Placement.make(
        AB, "t.ab", insert_edges=[("right", "join")], delete_blocks=["join"]
    )


class TestApply:
    def test_input_not_mutated(self):
        cfg = diamond()
        before = str(cfg)
        apply_placements(cfg, [diamond_plan()])
        assert str(cfg) == before

    def test_deleted_occurrence_reads_temp(self):
        result = apply_placements(diamond(), [diamond_plan()])
        join = result.cfg.block("join")
        assert str(join.instrs[0]) == "y = t.ab"

    def test_edge_insertion_creates_split_block(self):
        result = apply_placements(diamond(), [diamond_plan()])
        split = [b for b in result.cfg if b.label.startswith("ins_")]
        assert len(split) == 1
        assert str(split[0].instrs[0]) == "t.ab = a + b"

    def test_generator_gets_copy(self):
        result = apply_placements(diamond(), [diamond_plan()])
        left = result.cfg.block("left")
        assert [str(i) for i in left.instrs] == [
            "t.ab = a + b",
            "x = t.ab",
        ]
        assert ("left", "t.ab") in result.copies_added

    def test_transformed_graph_validates(self):
        result = apply_placements(diamond(), [diamond_plan()])
        validate_cfg(result.cfg)

    def test_semantics_preserved(self):
        cfg = diamond()
        result = apply_placements(cfg, [diamond_plan()])
        assert check_equivalence(cfg, result.cfg, runs=30).equivalent

    def test_entry_insertion_prepends(self):
        cfg = straight_line(["x = a + b"])
        plan = Placement.make(
            AB, "t.ab", insert_entries=["s0"], delete_blocks=["s0"]
        )
        result = apply_placements(cfg, [plan])
        s0 = result.cfg.block("s0")
        assert [str(i) for i in s0.instrs] == ["t.ab = a + b", "x = t.ab"]

    def test_exit_insertion_appends(self):
        cfg = straight_line(["x = 1"], ["y = a + b"])
        plan = Placement.make(
            AB, "t.ab", insert_exits=["s0"], delete_blocks=["s1"]
        )
        result = apply_placements(cfg, [plan])
        assert str(result.cfg.block("s0").instrs[-1]) == "t.ab = a + b"
        assert check_equivalence(cfg, result.cfg).equivalent

    def test_shared_edge_split_for_two_expressions(self):
        b = CFGBuilder()
        b.block("cond", "p = k < 2").branch("p", "one", "two")
        b.block("one", "x = a + b", "u = c * d").jump("join")
        b.block("two").jump("join")
        b.block("join", "y = a + b", "v = c * d").to_exit()
        cfg = b.build()
        cd = BinExpr("*", Var("c"), Var("d"))
        plans = [
            Placement.make(AB, "t.ab", insert_edges=[("two", "join")],
                           delete_blocks=["join"]),
            Placement.make(cd, "t.cd", insert_edges=[("two", "join")],
                           delete_blocks=["join"]),
        ]
        result = apply_placements(cfg, plans)
        splits = [blk for blk in result.cfg if blk.label.startswith("ins_")]
        assert len(splits) == 1
        assert len(splits[0].instrs) == 2
        assert check_equivalence(cfg, result.cfg).equivalent

    def test_duplicate_temps_rejected(self):
        plans = [
            Placement.make(AB, "t.same"),
            Placement.make(BinExpr("*", Var("c"), Var("d")), "t.same"),
        ]
        with pytest.raises(PlacementError, match="distinct"):
            apply_placements(diamond(), plans)

    def test_temp_collision_with_program_var_uniquified(self):
        cfg = diamond()
        plan = Placement.make(
            AB, "x", insert_edges=[("right", "join")], delete_blocks=["join"]
        )  # "x" exists in the diamond
        result = apply_placements(cfg, [plan])
        assert result.placements[0].temp == "x~2"
        assert "x~2" in result.cfg.variables()
        assert check_equivalence(cfg, result.cfg).equivalent


class TestIsolatedCopyCollapse:
    def test_pointless_copy_collapsed(self):
        # No deletions anywhere: the tentative copy at the only
        # occurrence must be undone.
        cfg = straight_line(["x = a + b"])
        plan = Placement.make(AB, "t.ab")
        result = apply_placements(cfg, [plan])
        assert [str(i) for i in result.cfg.block("s0").instrs] == ["x = a + b"]
        assert ("s0", "t.ab") in result.copies_collapsed

    def test_useful_copy_kept(self):
        result = apply_placements(diamond(), [diamond_plan()])
        assert ("left", "t.ab") not in result.copies_collapsed
        assert result.copy_blocks == {"left"}

    def test_collapse_disabled_keeps_copy(self):
        cfg = straight_line(["x = a + b"])
        plan = Placement.make(AB, "t.ab")
        result = apply_placements(
            cfg, [plan], collapse_isolated_copies=False,
            drop_dead_insertions=False,
        )
        assert [str(i) for i in result.cfg.block("s0").instrs] == [
            "t.ab = a + b",
            "x = t.ab",
        ]

    def test_copy_kept_for_same_block_consumer(self):
        # x = a+b; later y = a+b deleted in the same block chain.
        cfg = straight_line(["x = a + b"], ["y = a + b"])
        plan = Placement.make(AB, "t.ab", delete_blocks=["s1"])
        result = apply_placements(cfg, [plan])
        assert str(result.cfg.block("s1").instrs[0]) == "y = t.ab"
        assert ("s0", "t.ab") not in result.copies_collapsed
        assert check_equivalence(cfg, result.cfg).equivalent

    def test_collapse_patches_only_the_edited_blocks(self):
        # A collapse only grows its block's transfer and leaves the
        # live-in unchanged, so on a ~200-block program the liveness
        # patches after every collapse visit just the edited blocks:
        # nothing is reset, nothing propagates.
        from repro.core.lcm import analyze_lcm, lcm_placements
        from repro.corpus import generate_source, profile_config
        from repro.lang.lower import compile_program
        from repro.obs.manager import AnalysisManager

        source = generate_source(0, profile_config("mixed", 220))
        cfg = compile_program(source)
        assert len(cfg) >= 150
        manager = AnalysisManager()
        placements = lcm_placements(analyze_lcm(cfg))
        result = apply_placements(
            cfg, placements, drop_dead_insertions=False, manager=manager
        )
        engine = manager.liveness(result.cfg)
        engine.solve()  # land the last block's pending patch
        edited = {label for label, _ in result.copies_collapsed}
        assert len(edited) >= 50
        assert engine.stats.full_solves == 1
        assert engine.stats.node_visits <= len(edited)


class TestDeadInsertionCleanup:
    def test_useless_edge_insertion_dropped(self):
        # Insert on an edge although nothing consumes the temp.
        cfg = diamond()
        plan = Placement.make(AB, "t.ab", insert_edges=[("cond", "right")])
        result = apply_placements(cfg, [plan])
        split = [b for b in result.cfg if b.label.startswith("ins_")]
        assert split and split[0].is_empty
        assert result.insertions_dropped

    def test_eliminate_dead_code_counts(self):
        b = CFGBuilder()
        b.block("s", "t = a + b", "x = c * 2").to_exit()
        cfg = b.build()
        removed = eliminate_dead_code(cfg, ["t"])
        assert removed == 1
        assert [str(i) for i in cfg.block("s").instrs] == ["x = c * 2"]

    def test_eliminate_dead_code_keeps_live(self):
        b = CFGBuilder()
        b.block("s", "t = a + b", "x = t + 1").to_exit()
        cfg = b.build()
        assert eliminate_dead_code(cfg, ["t"]) == 0

    def test_eliminate_dead_code_cascades(self):
        b = CFGBuilder()
        b.block("s", "t1 = a + b", "t2 = t1 + 1").to_exit()
        cfg = b.build()
        # t2 is dead; removing it makes t1 dead too.
        assert eliminate_dead_code(cfg, ["t1", "t2"]) == 2
