"""Incremental + demand-driven liveness is bit-identical to re-solving.

The correctness spine of the incremental engine
(:mod:`repro.dataflow.incremental`): for random CFGs and random
insert/delete edit scripts, the patched fixpoint — and every
demand-driven point query — must coincide **bit for bit** with a fresh
:func:`~repro.analysis.liveness.compute_liveness` of the current graph
content.  Targeted tests pin the counter contracts (a DCE fixpoint run
performs exactly one full solve; pure point-query workloads perform
none), the manager wiring (``notify_cfg_edited`` patches,
``notify_cfg_mutated`` rebuilds) and the edge cases (unknown labels,
unknown variables, observable names the program never mentions).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import diamond, do_while_invariant

from repro.analysis.liveness import compute_liveness, liveness_of
from repro.bench.generators import GeneratorConfig, random_cfg
from repro.bench.shapegen import ShapeConfig, random_shape_cfg
from repro.dataflow.incremental import IncrementalLiveness
from repro.ir.cfg import CFGError
from repro.ir.expr import BinExpr, Const, Var
from repro.ir.instr import Assign
from repro.obs.manager import (
    AnalysisManager,
    notify_cfg_edited,
    notify_cfg_mutated,
)
from repro.obs.trace import Tracer, activate, deactivate

SMALL = GeneratorConfig(statements=10, max_depth=2)
SHAPES = ShapeConfig(blocks=8, back_edge_probability=0.5)
LOOPY = ShapeConfig(blocks=14, back_edge_probability=0.7, instrs_per_block=3)


def _is_live_after(cfg, liveness, label, index, var):
    """Is *var* live immediately after instruction *index* of *label*?

    The from-scratch reference for the engine's point query: scan the
    block tail, then fall back on a solved
    :class:`~repro.analysis.liveness.LivenessResult`.
    """
    block = cfg.block(label)
    for instr in block.instrs[index + 1 :]:
        if var in instr.uses():
            return True
        if instr.target == var:
            return False
    if block.terminator is not None and var in block.terminator.uses():
        return True
    return liveness.is_live_out(label, var)


quick = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def _random_edit(cfg, rng, step):
    """Mutate one block's instruction list in place; return its label."""
    labels = [l for l in cfg.labels if cfg.block(l).instrs]
    if labels and rng.random() < 0.5:
        label = rng.choice(labels)
        block = cfg.block(label)
        del block.instrs[rng.randrange(len(block.instrs))]
    else:
        label = rng.choice(list(cfg.labels))
        block = cfg.block(label)
        names = sorted(cfg.variables()) or ["seed"]
        target = rng.choice(names + [f"fresh{step}"])
        expr = BinExpr("+", Var(rng.choice(names)), Const(rng.randrange(7)))
        block.instrs.insert(rng.randrange(len(block.instrs) + 1), Assign(target, expr))
    return label


def _grow_edit(cfg, rng, step):
    """An edit that only grows the block's transfer, column by column.

    Either a new upward-exposed use (``v = v + k`` at the block top: the
    use pins ``v``'s column to 1) or a removed def (an assignment
    retargeted to a fresh name nothing reads).
    """
    labels = [l for l in cfg.labels if cfg.block(l).instrs]
    if labels and rng.random() < 0.5:
        label = rng.choice(labels)
        block = cfg.block(label)
        i = rng.randrange(len(block.instrs))
        block.instrs[i] = Assign(f"dead{step}", block.instrs[i].expr)
        return label
    label = rng.choice(list(cfg.labels))
    name = rng.choice(sorted(cfg.variables()) or ["seed"])
    expr = BinExpr("+", Var(name), Const(rng.randrange(7)))
    cfg.block(label).instrs.insert(0, Assign(name, expr))
    return label


def _shrink_edit(cfg, rng, step):
    """An edit that only shrinks the block's transfer, column by column.

    Either removed uses (a right-hand side replaced by a constant) or a
    new def (``v = k`` inserted anywhere, covering later uses of ``v``).
    """
    labels = [l for l in cfg.labels if cfg.block(l).instrs]
    if labels and rng.random() < 0.5:
        label = rng.choice(labels)
        block = cfg.block(label)
        i = rng.randrange(len(block.instrs))
        block.instrs[i] = Assign(block.instrs[i].target, Const(step))
        return label
    label = rng.choice(list(cfg.labels))
    block = cfg.block(label)
    name = rng.choice(sorted(cfg.variables()) or ["seed"])
    at = rng.randrange(len(block.instrs) + 1)
    block.instrs.insert(at, Assign(name, Const(step)))
    return label


def _mixed_edit(cfg, rng, step):
    return rng.choice((_grow_edit, _shrink_edit, _random_edit))(cfg, rng, step)


def _assert_matches_reference(engine, cfg, exit_names, context=""):
    """engine.result() must equal compute_liveness bit for bit."""
    reference = compute_liveness(cfg, live_at_exit=exit_names)
    result = engine.result()
    assert result.variables == reference.variables, context
    assert result.index == reference.index, context
    for label in cfg.labels:
        assert result.livein[label].width == reference.livein[label].width
        assert result.livein[label].bits == reference.livein[label].bits, (
            context,
            label,
            "livein",
        )
        assert result.liveout[label].bits == reference.liveout[label].bits, (
            context,
            label,
            "liveout",
        )


class TestIncrementalEquivalence:
    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_edit_scripts_match_full_resolve(self, seed, edit_seed):
        cfg = random_cfg(seed, SMALL)
        rng = random.Random(edit_seed)
        names = sorted(cfg.variables())
        exit_names = names[: rng.randrange(3)] if names else []
        engine = IncrementalLiveness(cfg, live_at_exit=exit_names)
        _assert_matches_reference(engine, cfg, exit_names, "initial")
        for step in range(6):
            label = _random_edit(cfg, rng, step)
            engine.block_edited(label)
            _assert_matches_reference(engine, cfg, exit_names, f"step {step}")
        assert engine.stats.full_solves == 1  # everything after is patched
        assert engine.stats.incr_updates >= 1

    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_edit_scripts_on_loopy_shapes(self, seed, edit_seed):
        # Deletion around back edges is where naive re-propagation from
        # stale facts goes wrong: a loop-carried live range sustains
        # itself.  The column-wise patch must reset shrunk columns.
        cfg = random_shape_cfg(seed, SHAPES)
        rng = random.Random(edit_seed)
        engine = IncrementalLiveness(cfg)
        engine.solve()
        for step in range(6):
            label = _random_edit(cfg, rng, step)
            engine.block_edited(label)
        _assert_matches_reference(engine, cfg, (), "after burst")
        assert engine.stats.full_solves == 1

    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_point_queries_match_reference(self, seed, edit_seed):
        cfg = random_cfg(seed, SMALL)
        rng = random.Random(edit_seed)
        engine = IncrementalLiveness(cfg)
        for step in range(4):
            reference = compute_liveness(cfg)
            probe_vars = (reference.variables or ["x"])[:4]
            for label in cfg.labels:
                assert engine.live_in(label) == reference.live_in(label)
                assert engine.live_out(label) == reference.live_out(label)
                for var in probe_vars:
                    assert engine.is_live_in(label, var) == reference.is_live_in(
                        label, var
                    )
                    assert engine.is_live_out(label, var) == reference.is_live_out(
                        label, var
                    )
                block = cfg.block(label)
                for i, instr in enumerate(block.instrs):
                    assert engine.is_live_after(
                        label, i, instr.target
                    ) == _is_live_after(cfg, reference, label, i, instr.target)
            label = _random_edit(cfg, rng, step)
            engine.block_edited(label)


class TestColumnPatches:
    """The column-wise patch rule against fresh solves, edit by edit.

    Grown columns propagate from the old facts; shrunk columns are reset
    where they may be stale.  Loop-carried deletions and partially
    demand-solved engines are where skipping a reset would go wrong.
    """

    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_grow_only_scripts_reset_nothing(self, seed, edit_seed):
        cfg = random_shape_cfg(seed, LOOPY)
        rng = random.Random(edit_seed)
        engine = IncrementalLiveness(cfg)
        engine.solve()
        for step in range(8):
            engine.block_edited(_grow_edit(cfg, rng, step))
            _assert_matches_reference(engine, cfg, (), f"grow step {step}")
        # Every update seeded just its edited block: no column was reset.
        assert engine.stats.blocks_updated == engine.stats.incr_updates == 8
        assert engine.stats.full_solves == 1

    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_shrink_only_scripts(self, seed, edit_seed):
        cfg = random_shape_cfg(seed, LOOPY)
        rng = random.Random(edit_seed)
        names = sorted(cfg.variables())
        exit_names = names[: rng.randrange(3)]
        engine = IncrementalLiveness(cfg, live_at_exit=exit_names)
        engine.solve()
        for step in range(8):
            engine.block_edited(_shrink_edit(cfg, rng, step))
            _assert_matches_reference(
                engine, cfg, exit_names, f"shrink step {step}"
            )
        assert engine.stats.full_solves == 1

    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_mixed_bursts(self, seed, edit_seed):
        cfg = random_shape_cfg(seed, LOOPY)
        rng = random.Random(edit_seed)
        engine = IncrementalLiveness(cfg)
        engine.solve()
        for burst in range(4):
            for step in range(rng.randrange(1, 5)):
                engine.block_edited(_mixed_edit(cfg, rng, 10 * burst + step))
            _assert_matches_reference(engine, cfg, (), f"burst {burst}")
        assert engine.stats.full_solves == 1

    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_partially_solved_engines(self, seed, edit_seed):
        # Point query (a partial solved set), edit, query again, then
        # promote with solve(): the patch must only touch solved facts
        # and the promotion must start from consistent ones.
        cfg = random_shape_cfg(seed, LOOPY)
        rng = random.Random(edit_seed)
        engine = IncrementalLiveness(cfg)
        for step in range(6):
            reference = compute_liveness(cfg)
            label = rng.choice(list(cfg.labels))
            var = rng.choice(reference.variables or ["x"])
            assert engine.is_live_out(label, var) == reference.is_live_out(
                label, var
            )
            assert engine.live_in(label) == reference.live_in(label)
            engine.block_edited(_mixed_edit(cfg, rng, step))
        assert engine.stats.full_solves == 0
        _assert_matches_reference(engine, cfg, (), "promoted")
        assert engine.stats.full_solves == 0
        for step in range(6, 10):
            engine.block_edited(_mixed_edit(cfg, rng, step))
            _assert_matches_reference(engine, cfg, (), f"promoted {step}")

    def test_loop_carried_use_deletion(self):
        # v circulates around the loop only because `body` reads it;
        # once the read goes, the whole cycle must go dead, not sustain
        # itself from the stale facts.
        from repro.ir.builder import CFGBuilder

        b = CFGBuilder()
        b.block("pre", "v = a + 1").jump("head")
        b.block("head", "t = i < n").branch("t", "body", "after")
        b.block("body", "y = v + 2", "i = i + 1").jump("head")
        b.block("after", "w = a + 3").to_exit()
        cfg = b.build()
        engine = IncrementalLiveness(cfg)
        assert engine.is_live_in("head", "v")
        engine.solve()
        del cfg.block("body").instrs[0]
        engine.block_edited("body")
        _assert_matches_reference(engine, cfg, (), "use deleted")
        assert not engine.is_live_in("head", "v")
        assert not engine.is_live_out("pre", "v")


class TestDemandDriven:
    def test_point_queries_never_solve_globally(self):
        cfg = do_while_invariant()
        engine = IncrementalLiveness(cfg)
        reference = compute_liveness(cfg)
        assert engine.is_live_in("after", "w") == reference.is_live_in("after", "w")
        assert engine.stats.full_solves == 0
        assert engine.stats.demand_solves >= 1

    def test_demand_region_is_the_backward_slice(self):
        # Querying a late block of a chain must not solve the blocks
        # before it: a backward fact depends only on successors.
        b_count = 12
        from repro.ir.builder import CFGBuilder

        b = CFGBuilder()
        for i in range(b_count):
            handle = b.block(f"s{i}", f"v{i} = a + {i}")
            if i + 1 < b_count:
                handle.jump(f"s{i + 1}")
            else:
                handle.to_exit()
        cfg = b.build()
        engine = IncrementalLiveness(cfg)
        engine.is_live_out(f"s{b_count - 1}", "a")
        assert engine.stats.full_solves == 0
        # The slice of the last block is just itself (+ the exit block).
        assert engine.stats.blocks_demanded <= 2

    def test_promotion_after_demand_is_exact(self):
        cfg = random_cfg(7, SMALL)
        engine = IncrementalLiveness(cfg)
        some_label = next(iter(cfg.labels))
        engine.live_in(some_label)  # partial demand solve
        assert engine.stats.full_solves == 0
        _assert_matches_reference(engine, cfg, (), "promoted")

    def test_interleaved_demand_and_edits(self):
        cfg = random_shape_cfg(3, SHAPES)
        rng = random.Random(11)
        engine = IncrementalLiveness(cfg)
        for step in range(8):
            reference = compute_liveness(cfg)
            label = rng.choice(list(cfg.labels))
            var = rng.choice(reference.variables) if reference.variables else "x"
            assert engine.is_live_out(label, var) == reference.is_live_out(label, var)
            engine.block_edited(_random_edit(cfg, rng, step))
        assert engine.stats.full_solves == 0


class TestCounters:
    def _counters(self, fn):
        tracer = Tracer()
        activate(tracer)
        try:
            fn()
        finally:
            deactivate()
        return dict(tracer.counters)

    def test_dce_performs_exactly_one_full_solve(self):
        # The pinned regression: DCE used to re-solve the world once per
        # fixpoint round; with the engine it solves once and patches.
        from repro.passes.dce import dead_code_elimination

        cfg = random_cfg(5, GeneratorConfig(statements=14))
        counters = self._counters(lambda: dead_code_elimination(cfg))
        assert counters.get("dataflow.incr.fullsolve", 0) == 1
        assert counters.get("dataflow.solve[liveness]", counters.get("cache.miss", 1))

    def test_eliminate_dead_code_performs_exactly_one_full_solve(self):
        from repro.core.transform import eliminate_dead_code
        from tests.helpers import straight_line

        cfg = straight_line(["t1 = a + b", "t2 = t1 + 1", "x = c + d"])
        counters = self._counters(lambda: eliminate_dead_code(cfg, ["t1", "t2"]))
        assert counters.get("dataflow.incr.fullsolve", 0) == 1

    def test_update_counter_fires_on_edits(self):
        cfg = diamond()
        engine = IncrementalLiveness(cfg)

        def run():
            engine.solve()
            cfg.block("left").instrs.append(Assign("q", BinExpr("+", Var("a"), Const(1))))
            engine.block_edited("left")
            engine.solve()

        counters = self._counters(run)
        assert counters.get("dataflow.incr.fullsolve", 0) == 1
        assert counters.get("dataflow.incr.update", 0) == 1


class TestManagerWiring:
    def test_manager_engine_follows_edit_hook(self):
        manager = AnalysisManager()
        cfg = random_cfg(9, SMALL)
        engine = manager.liveness(cfg)
        assert manager.liveness(cfg) is engine  # one engine per (cfg, exit set)
        engine.solve()
        label = _random_edit(cfg, random.Random(1), 0)
        notify_cfg_edited(cfg, [label])
        _assert_matches_reference(engine, cfg, (), "after hook")
        assert engine.stats.full_solves == 1

    def test_full_solve_is_memoized_by_content(self):
        manager = AnalysisManager()
        cfg = random_cfg(9, SMALL)
        twin = cfg.copy()
        manager.liveness(cfg).solve()
        before = manager.stats.misses
        manager.liveness(twin).solve()  # same content, distinct object
        assert manager.stats.misses == before
        assert manager.stats.hits >= 1

    def test_mutation_hook_resets_the_engine(self):
        manager = AnalysisManager()
        cfg = random_cfg(4, SMALL)
        engine = manager.liveness(cfg)
        engine.solve()
        # A structural mutation (block added) must escalate to rebuild.
        some = next(iter(cfg.labels))
        cfg.split_edge(some, cfg.succs(some)[0], "wedge")
        notify_cfg_mutated(cfg)
        _assert_matches_reference(engine, cfg, (), "after rebuild")
        assert engine.stats.full_solves == 2

    def test_distinct_exit_sets_get_distinct_engines(self):
        manager = AnalysisManager()
        cfg = diamond()
        default = manager.liveness(cfg)
        observed = manager.liveness(cfg, live_at_exit=["y"])
        assert default is not observed
        assert observed.is_live_out("join", "y")
        assert not default.is_live_out("join", "y")

    def test_liveness_of_routes_through_the_memo_tier(self):
        manager = AnalysisManager()
        cfg = diamond()
        first = liveness_of(cfg, manager=manager)
        second = liveness_of(cfg, manager=manager)
        assert first is second
        assert manager.stats.hits == 1
        assert liveness_of(cfg).livein.keys() == first.livein.keys()


class TestEdgeCases:
    def test_unknown_label_raises(self):
        engine = IncrementalLiveness(diamond())
        with pytest.raises(CFGError):
            engine.is_live_in("nope", "a")

    def test_unknown_variable_is_dead(self):
        engine = IncrementalLiveness(diamond())
        assert not engine.is_live_in("join", "zzz")
        assert not engine.is_live_out("cond", "zzz")

    def test_unmentioned_exit_name_is_live_everywhere(self):
        cfg = diamond()
        engine = IncrementalLiveness(cfg, live_at_exit=["phantom"])
        for label in cfg.labels:
            assert engine.is_live_in(label, "phantom")
            assert engine.is_live_out(label, "phantom")
        _assert_matches_reference(engine, cfg, ("phantom",), "phantom")

    def test_new_block_label_escalates_to_rebuild(self):
        cfg = diamond()
        engine = IncrementalLiveness(cfg)
        engine.solve()
        split = cfg.split_edge("cond", "right", "wedge")
        split.instrs.append(Assign("r", BinExpr("+", Var("a"), Const(2))))
        engine.block_edited(split.label)  # unseen label: full rebuild
        _assert_matches_reference(engine, cfg, (), "after split")

    def test_universe_growth_and_decay_roundtrip(self):
        cfg = diamond()
        engine = IncrementalLiveness(cfg)
        engine.solve()
        # Grow: a brand-new variable appears...
        cfg.block("left").instrs.append(
            Assign("w", BinExpr("+", Var("fresh"), Const(1)))
        )
        engine.block_edited("left")
        _assert_matches_reference(engine, cfg, (), "grown")
        # ... and decays: its last mention is deleted again.
        del cfg.block("left").instrs[-1]
        engine.block_edited("left")
        _assert_matches_reference(engine, cfg, (), "decayed")
