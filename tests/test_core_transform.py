"""Unit tests for the transformation engine."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import AB, _is_live_after, diamond, straight_line

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

    def test_isolation_is_one_memoized_solve_on_the_input(self):
        # On a ~200-block program the copies are decided by one
        # isolation solve on the input graph: no liveness engine, no
        # plan for the transformed graph, and a memo hit when the same
        # (cfg, placements) is applied again through the same manager.
        from repro.core.lcm import analyze_lcm, lcm_placements
        from repro.corpus import generate_source, profile_config
        from repro.lang.lower import compile_program
        from repro.obs.manager import AnalysisManager
        from repro.obs.trace import Tracer, activate, deactivate

        source = generate_source(0, profile_config("mixed", 220))
        cfg = compile_program(source)
        assert len(cfg) >= 150
        manager = AnalysisManager()
        placements = lcm_placements(analyze_lcm(cfg, manager=manager))
        tracer = activate(Tracer())
        try:
            result = apply_placements(cfg, placements, manager=manager)
        finally:
            deactivate()
        assert len(result.copies_collapsed) >= 50
        solves = [
            event for event in tracer.events
            if event.name == "dataflow.solve"
        ]
        assert [event.attrs["problem"] for event in solves] == ["isolation"]
        attrs = solves[0].attrs
        assert attrs["backend"] == "dense" and attrs["bitvec_ops"] == 0
        assert attrs["sweeps"] >= 2 and attrs["node_visits"] >= len(cfg)
        plan_misses = manager.stats.plan_misses
        hits = manager.stats.hits
        again = apply_placements(cfg, placements, manager=manager)
        assert manager.stats.hits == hits + 1
        assert manager.stats.plan_misses == plan_misses
        assert str(again.cfg) == str(result.cfg)

    def test_copy_blocks_keeps_a_block_whose_first_copy_collapsed(self):
        # Two generators of a + b in s0: the first is isolated (the
        # second redefines the temp), the last feeds s1.
        b = CFGBuilder()
        b.block("s0", "x = a + b", "a = c", "y = a + b").jump("s1")
        b.block("s1", "z = a + b").to_exit()
        cfg = b.build()
        plan = Placement.make(AB, "t0", delete_blocks=["s1"])
        result = apply_placements(cfg, [plan])
        assert [str(i) for i in result.cfg.block("s0").instrs] == [
            "x = a + b", "a = c", "t0 = a + b", "y = t0",
        ]
        assert result.copies_collapsed == [("s0", "t0")]
        assert result.copy_blocks == {"s0"}
        assert check_equivalence(cfg, result.cfg).equivalent


class TestIsolationSolve:
    def test_loop_carried_temp(self):
        # The loop body's generator feeds the deleted occurrence in the
        # header on the back edge: the temp is live around the loop.
        b = CFGBuilder()
        b.block("pre").jump("head")
        b.block("head", "x = a + b", "p = x < 9").branch("p", "body", "out")
        b.block("body", "a = a + 1", "y = a + b").jump("head")
        b.block("out").to_exit()
        cfg = b.build()
        plan = Placement.make(
            AB, "t.ab", insert_edges=[("pre", "head")], delete_blocks=["head"]
        )
        result = apply_placements(cfg, [plan])
        assert [str(i) for i in result.cfg.block("body").instrs] == [
            "a = a + 1", "t.ab = a + b", "y = t.ab",
        ]
        assert result.copy_blocks == {"body"}
        assert not result.insertions_dropped
        assert check_equivalence(cfg, result.cfg).equivalent

    def test_entry_insertion_and_generator_in_one_block(self):
        # The entry insertion feeds only the replaced occurrence right
        # after it (the generator redefines the temp): it is isolated,
        # so the pair stays the original computation.
        b = CFGBuilder()
        b.block("s0", "x = a + b", "a = c", "y = a + b").jump("s1")
        b.block("s1", "z = a + b").to_exit()
        cfg = b.build()
        plan = Placement.make(
            AB, "t0", insert_entries=["s0"], delete_blocks=["s0", "s1"]
        )
        result = apply_placements(cfg, [plan])
        assert [str(i) for i in result.cfg.block("s0").instrs] == [
            "x = a + b", "a = c", "t0 = a + b", "y = t0",
        ]
        assert result.copies_collapsed == [("s0", "t0")]
        assert result.copy_blocks == {"s0"}
        assert check_equivalence(cfg, result.cfg).equivalent
        # Without the collapse the insertion stays and feeds its read.
        kept = apply_placements(cfg, [plan], collapse_isolated_copies=False)
        assert [str(i) for i in kept.cfg.block("s0").instrs][:2] == [
            "t0 = a + b", "x = t0",
        ]

    def test_exit_insertion_after_the_last_generator(self):
        # The exit insertion redefines the temp, so the generator before
        # it is isolated even though the temp is live out.
        b = CFGBuilder()
        b.block("s0", "a = c", "x = a + b").jump("s1")
        b.block("s1", "y = a + b").to_exit()
        cfg = b.build()
        plan = Placement.make(
            AB, "t0", insert_exits=["s0"], delete_blocks=["s1"]
        )
        result = apply_placements(cfg, [plan])
        assert [str(i) for i in result.cfg.block("s0").instrs] == [
            "a = c", "x = a + b", "t0 = a + b",
        ]
        assert result.copies_collapsed == [("s0", "t0")]
        assert result.copy_blocks == set()
        assert check_equivalence(cfg, result.cfg).equivalent

    def test_insert_edge_kills_liveness(self):
        # The join's read is fed on both in-edges by insertions, so the
        # generator in `left` feeds nothing and collapses.
        cfg = diamond()
        plan = Placement.make(
            AB, "t.ab", insert_edges=[("left", "join"), ("right", "join")],
            delete_blocks=["join"],
        )
        result = apply_placements(cfg, [plan])
        left = result.cfg.block("left")
        assert [str(i) for i in left.instrs] == ["x = a + b"]
        assert ("left", "t.ab") in result.copies_collapsed
        assert result.copy_blocks == set()
        assert check_equivalence(cfg, result.cfg).equivalent

    def test_duplicate_expressions_rejected(self):
        plans = [Placement.make(AB, "t.one"), Placement.make(AB, "t.two")]
        with pytest.raises(PlacementError, match="distinct expressions"):
            apply_placements(diamond(), plans)


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


# ---------------------------------------------------------------------------
# Oracle: the tentative-copy algorithm, from scratch
# ---------------------------------------------------------------------------


def reference_apply(
    cfg, placements, collapse_isolated_copies=True, drop_dead_insertions=True
):
    """The transformation the isolation solve replaces, kept as an oracle.

    Writes a tentative copy ``t = e; x = t`` at every remaining
    occurrence, solves whole-program liveness on the transformed graph
    (re-solving after every edit), collapses the copies whose temp dies
    at once, then drops temp definitions that are dead.
    """
    from repro.analysis.liveness import compute_liveness
    from repro.core.placement import upward_exposed_index
    from repro.core.transform import TransformResult
    from repro.ir.instr import Assign

    existing = set(cfg.variables())
    taken = existing | {p.temp for p in placements}
    renamed = []
    for placement in placements:
        placement.validate_against(cfg)
        temp = placement.temp
        if temp in existing:
            suffix = 2
            while f"{temp}~{suffix}" in taken:
                suffix += 1
            temp = f"{temp}~{suffix}"
            taken.add(temp)
            placement = Placement(
                placement.expr, temp, placement.insert_edges,
                placement.insert_entries, placement.delete_blocks,
                placement.insert_exits,
            )
        renamed.append(placement)
    placements = renamed
    work = cfg.copy()
    result = TransformResult(
        original=cfg, cfg=work, placements=list(placements),
        temps={p.temp for p in placements},
    )
    for p in placements:
        for label in sorted(p.delete_blocks):
            index = upward_exposed_index(work, label, p.expr)
            old = work.block(label).instrs[index]
            work.block(label).instrs[index] = Assign(old.target, Var(p.temp))
    for p in placements:
        for block in work:
            rewritten = []
            for instr in block.instrs:
                if instr.expr == p.expr:
                    rewritten.append(Assign(p.temp, p.expr))
                    rewritten.append(Assign(instr.target, Var(p.temp)))
                    result.copies_added.append((block.label, p.temp))
                else:
                    rewritten.append(instr)
            block.instrs[:] = rewritten
    for p in placements:
        for label in sorted(p.insert_entries):
            work.block(label).instrs.insert(0, Assign(p.temp, p.expr))
        for label in sorted(p.insert_exits):
            work.block(label).append(Assign(p.temp, p.expr))
    by_edge = {}
    for p in placements:
        for edge in p.insert_edges:
            by_edge.setdefault(edge, []).append(p)
    for src, dst in sorted(by_edge):
        split = work.split_edge(src, dst, f"ins_{src}_{dst}")
        for p in sorted(by_edge[(src, dst)], key=lambda p: p.temp):
            split.append(Assign(p.temp, p.expr))

    if collapse_isolated_copies:
        for block in work:
            liveness = compute_liveness(work)
            i = 0
            while i + 1 < len(block.instrs):
                first, second = block.instrs[i], block.instrs[i + 1]
                if (
                    first.target in result.temps
                    and second.expr == Var(first.target)
                    and second.target != first.target
                    and (block.label, first.target) in result.copies_added
                    and not _is_live_after(
                        work, liveness, block.label, i + 1, first.target
                    )
                ):
                    block.instrs[i : i + 2] = [
                        Assign(second.target, first.expr)
                    ]
                    result.copies_collapsed.append((block.label, first.target))
                    liveness = compute_liveness(work)
                else:
                    i += 1
    if drop_dead_insertions:
        changed = True
        while changed:
            changed = False
            liveness = compute_liveness(work)
            for block in work:
                keep = []
                for i, instr in enumerate(block.instrs):
                    if instr.target in result.temps and not _is_live_after(
                        work, liveness, block.label, i, instr.target
                    ):
                        result.insertions_dropped.append(
                            (block.label, instr.target)
                        )
                        changed = True
                    else:
                        keep.append(instr)
                block.instrs[:] = keep
    return result


def _producer_case(producer, cfg):
    """``(graph, placements)`` as the named pass would apply them."""
    from repro.baselines.gcse import gcse_placements
    from repro.baselines.morel_renvoise import (
        analyze_morel_renvoise,
        morel_renvoise_placements,
    )
    from repro.core.krs import analyze_krs, krs_placements
    from repro.core.lcm import analyze_lcm, bcm_placements, lcm_placements
    from repro.core.nodegraph import expand_to_nodes
    from repro.extensions.codesize import size_governed_placements
    from repro.ir.edgesplit import split_join_edges

    if producer == "lcm":
        return cfg, lcm_placements(analyze_lcm(cfg))
    if producer == "bcm":
        return cfg, bcm_placements(analyze_lcm(cfg))
    if producer == "lcm-size":
        return cfg, size_governed_placements(analyze_lcm(cfg), 0)[0]
    if producer == "mr":
        return cfg, morel_renvoise_placements(analyze_morel_renvoise(cfg))
    if producer == "gcse":
        return cfg, gcse_placements(cfg)
    expanded = expand_to_nodes(cfg).cfg
    split_join_edges(expanded)
    variant = producer[len("krs-"):]
    return expanded, krs_placements(analyze_krs(expanded), variant)


def _random_placements(cfg, rng):
    """Syntactically valid placements over *cfg*'s computations."""
    from repro.core.placement import upward_exposed_index

    exprs = sorted(
        {i.expr for _, _, i in cfg.instructions() if i.is_computation},
        key=str,
    )
    exprs.append(BinExpr("*", Var("q"), Var("r")))  # occurs nowhere
    labels = cfg.labels
    edges = cfg.edges()
    placements = []
    for j, expr in enumerate(rng.sample(exprs, rng.randint(1, len(exprs)))):
        deletable = []
        for label in labels:
            try:
                upward_exposed_index(cfg, label, expr)
            except PlacementError:
                continue
            deletable.append(label)
        placements.append(Placement.make(
            expr,
            rng.choice([f"t{j}", "x", "a"]),  # program names get renamed
            insert_edges=[e for e in edges if rng.random() < 0.2],
            insert_entries=[l for l in labels if rng.random() < 0.15],
            insert_exits=[l for l in labels if rng.random() < 0.15],
            delete_blocks=[l for l in deletable if rng.random() < 0.6],
        ))
    # Temps must be distinct; the renaming still kicks in for the
    # surviving program names.
    seen = set()
    return [p for p in placements if not (p.temp in seen or seen.add(p.temp))]


PRODUCERS = [
    "lcm", "bcm", "krs-lcm", "krs-alcm", "krs-bcm", "mr", "gcse", "lcm-size",
    "random",
]


def _assert_matches_reference(cfg, placements):
    from repro.obs.fingerprint import cfg_fingerprint

    for collapse in (True, False):
        for drop in (True, False):
            got = apply_placements(
                cfg, placements, collapse_isolated_copies=collapse,
                drop_dead_insertions=drop,
            )
            want = reference_apply(
                cfg, placements, collapse_isolated_copies=collapse,
                drop_dead_insertions=drop,
            )
            assert str(got.cfg) == str(want.cfg), (collapse, drop)
            assert cfg_fingerprint(got.cfg) == cfg_fingerprint(want.cfg)
            assert got.cfg.labels == want.cfg.labels
            assert set(got.copies_added) == set(want.copies_added)
            assert set(got.copies_collapsed) == set(want.copies_collapsed)
            assert set(got.insertions_dropped) == set(want.insertions_dropped)
            assert [p.temp for p in got.placements] == [
                p.temp for p in want.placements
            ]


class TestMatchesTentativeCopyReference:
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(PRODUCERS),
    )
    def test_random_programs(self, seed, producer):
        import random

        from repro.bench.generators import GeneratorConfig, random_cfg

        cfg = random_cfg(seed, GeneratorConfig(statements=10, max_depth=2))
        if producer == "random":
            graph = cfg
            placements = _random_placements(cfg, random.Random(seed))
        else:
            graph, placements = _producer_case(producer, cfg)
        _assert_matches_reference(graph, placements)

    @pytest.mark.parametrize("producer", PRODUCERS[:-1])
    def test_fixed_seeds(self, producer):
        from repro.bench.generators import GeneratorConfig, random_cfg

        for seed in range(4):
            cfg = random_cfg(seed, GeneratorConfig(statements=12))
            _assert_matches_reference(*_producer_case(producer, cfg))

    def test_random_placements_hit_the_isolated_entry(self):
        # The random deck covers the entry-insertion-and-generator case.
        b = CFGBuilder()
        b.block("s0", "x = a + b", "a = c", "y = a + b").jump("s1")
        b.block("s1", "z = a + b", "p = a < b").branch("p", "s0", "s2")
        b.block("s2").to_exit()
        cfg = b.build()
        for entries in ([], ["s0"], ["s0", "s1"]):
            for exits in ([], ["s0"], ["s1"]):
                plan = Placement.make(
                    AB, "t0", insert_entries=entries, insert_exits=exits,
                    insert_edges=[("s1", "s0")], delete_blocks=["s0", "s1"],
                )
                _assert_matches_reference(cfg, [plan])
