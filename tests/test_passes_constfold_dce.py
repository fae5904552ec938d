"""Unit tests for constant folding/propagation and whole-program DCE.

DCE is one faint-variable solve.  The iterated liveness loop it
replaced is kept here as the oracle (:func:`iterated_dce`): on every
graph the new pass must remove a superset of the oracle's stores, remove
nothing on a second call, and leave the observable results unchanged.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import _is_live_after, straight_line

from repro.analysis.liveness import compute_liveness
from repro.bench.generators import GeneratorConfig, random_cfg
from repro.bench.shapegen import ShapeConfig, random_shape_cfg
from repro.core.optimality import check_equivalence
from repro.core.transform import eliminate_dead_code
from repro.corpus import generate_source, profile_config
from repro.interp import run
from repro.interp.random_inputs import random_envs
from repro.ir.builder import CFGBuilder
from repro.ir.expr import Const, Var
from repro.ir.instr import CondBranch
from repro.lang.lower import compile_program
from repro.obs.manager import notify_cfg_edited
from repro.obs.trace import tracing
from repro.passes import pipeline
from repro.passes.constfold import fold_constants
from repro.passes.dce import dead_code_elimination


class TestFolding:
    def test_literal_fold(self):
        cfg = straight_line(["x = 2 * 3"])
        assert fold_constants(cfg) == 1
        assert cfg.block("s0").instrs[0].expr == Const(6)

    def test_propagation_then_fold(self):
        cfg = straight_line(["x = 4", "y = x * 2"])
        fold_constants(cfg)
        assert cfg.block("s0").instrs[1].expr == Const(8)

    def test_fold_agrees_with_runtime_on_negative_remainder(self):
        # Folding goes through the interpreter's eval_expr, so the
        # compile-time value of -7 % 2 must be the truncated -1 (C
        # semantics), never Python's +1.
        cfg = straight_line(["x = 0 - 7", "y = x % 2", "z = x / 2"])
        fold_constants(cfg)
        instrs = cfg.block("s0").instrs
        assert instrs[1].expr == Const(-1)
        assert instrs[2].expr == Const(-3)

    def test_fold_agrees_with_runtime_on_shifts(self):
        # Folding goes through eval_expr, so compile-time shifts use
        # the same mod-64/arithmetic convention as the interpreter
        # (docs/LANGUAGE.md): 1 << 67 folds to 8, and -8 >> 1 stays
        # sign-preserving.
        cfg = straight_line(["x = 1 << 67", "y = 0 - 8", "z = y >> 1"])
        fold_constants(cfg)
        instrs = cfg.block("s0").instrs
        assert instrs[0].expr == Const(8)
        assert instrs[2].expr == Const(-4)

    def test_input_variables_not_assumed(self):
        cfg = straight_line(["y = a * 2"])  # a is an input
        assert fold_constants(cfg) == 0

    def test_initial_value_respected_at_partial_assignment(self):
        # x is set to 5 on one arm only; at the join x is not constant
        # (the other path keeps x's input value).
        b = CFGBuilder()
        b.block("top").branch("p", "set", "skip")
        b.block("set", "x = 5").jump("join")
        b.block("skip").jump("join")
        b.block("join", "y = x + 1").to_exit()
        cfg = b.build()
        assert fold_constants(cfg) == 0

    def test_join_agreeing_constants(self):
        b = CFGBuilder()
        b.block("top").branch("p", "l", "r")
        b.block("l", "x = 5").jump("join")
        b.block("r", "x = 5").jump("join")
        b.block("join", "y = x + 1").to_exit()
        cfg = b.build()
        fold_constants(cfg)
        assert cfg.block("join").instrs[0].expr == Const(6)

    def test_join_disagreeing_constants(self):
        b = CFGBuilder()
        b.block("top").branch("p", "l", "r")
        b.block("l", "x = 5").jump("join")
        b.block("r", "x = 7").jump("join")
        b.block("join", "y = x + 1").to_exit()
        cfg = b.build()
        assert fold_constants(cfg) == 0

    def test_branch_condition_becomes_constant(self):
        b = CFGBuilder()
        b.block("top", "p = 1").branch("p", "l", "r")
        b.block("l").to_exit()
        b.block("r").to_exit()
        cfg = b.build()
        fold_constants(cfg)
        term = cfg.block("top").terminator
        assert isinstance(term, CondBranch)
        assert term.cond == Const(1)

    def test_loop_variant_not_folded(self):
        b = CFGBuilder()
        b.block("init", "i = 0").jump("head")
        b.block("head", "i = i + 1", "c = i < n").branch("c", "head", "out")
        b.block("out", "y = i * 2").to_exit()
        cfg = b.build()
        fold_constants(cfg)
        # i varies around the loop: no instruction may claim it constant
        # after the header.
        assert cfg.block("out").instrs[0].expr == __import__(
            "repro.ir.expr", fromlist=["BinExpr"]
        ).BinExpr("*", Var("i"), Const(2))

    def test_total_division_agrees_with_runtime(self):
        cfg = straight_line(["x = 7 / 0", "y = -7 / 2"])
        fold_constants(cfg)
        assert cfg.block("s0").instrs[0].expr == Const(0)
        assert cfg.block("s0").instrs[1].expr == Const(-3)

    def test_semantics_preserved_on_random_programs(self):
        from repro.bench.generators import GeneratorConfig, random_cfg

        for seed in range(8):
            cfg = random_cfg(seed, GeneratorConfig(statements=8))
            snapshot = cfg.copy()
            fold_constants(cfg)
            assert check_equivalence(snapshot, cfg, runs=10).equivalent, seed


class TestDeadCodeElimination:
    def test_shadowed_store_removed(self):
        cfg = straight_line(["x = a + b", "x = 5"])
        assert dead_code_elimination(cfg) == 1
        assert [str(i) for i in cfg.block("s0").instrs] == ["x = 5"]

    def test_final_values_are_observable(self):
        # x is never read but its final value is observable: keep it.
        cfg = straight_line(["x = a + b"])
        assert dead_code_elimination(cfg) == 0

    def test_narrowed_observable_set(self):
        cfg = straight_line(["x = a + b", "y = c * 2"])
        removed = dead_code_elimination(cfg, observable=["y"])
        assert removed == 1
        assert [str(i) for i in cfg.block("s0").instrs] == ["y = c * 2"]

    def test_cascading_removal(self):
        cfg = straight_line(["t1 = a + b", "t2 = t1 + 1", "t2 = 0", "t1 = 0"])
        # t2 = t1+1 is shadowed; then t1 = a+b becomes shadowed too.
        assert dead_code_elimination(cfg) == 2

    def test_loop_use_keeps_store(self):
        b = CFGBuilder()
        b.block("init", "s = 0").jump("head")
        b.block("head", "s = s + 1", "c = s < n").branch("c", "head", "out")
        b.block("out").to_exit()
        cfg = b.build()
        assert dead_code_elimination(cfg) == 0

    def test_semantics_preserved(self):
        from repro.bench.generators import GeneratorConfig, random_cfg

        for seed in range(8):
            cfg = random_cfg(seed, GeneratorConfig(statements=8))
            snapshot = cfg.copy()
            dead_code_elimination(cfg)
            assert check_equivalence(snapshot, cfg, runs=10).equivalent, seed

    def test_observable_name_never_mentioned_is_kept_in_universe(self):
        # A name declared observable but absent from the program used to
        # be silently dropped from the liveness universe; it must stay
        # (live everywhere: nothing ever assigns it) and DCE must accept
        # such observable sets without surprises.
        from repro.analysis.liveness import compute_liveness

        cfg = straight_line(["x = a + b", "y = c * 2"])
        live = compute_liveness(cfg, live_at_exit=["y", "phantom"])
        assert "phantom" in live.variables
        assert live.is_live_in("s0", "phantom")
        assert live.is_live_out("s0", "phantom")

        removed = dead_code_elimination(cfg, observable=["y", "phantom"])
        assert removed == 1  # x is dead; phantom changes nothing else
        assert [str(i) for i in cfg.block("s0").instrs] == ["y = c * 2"]

    def test_non_candidate_store_keeps_what_it_reads(self):
        cfg = straight_line(["t = a + b"], ["x = t", "u = a * b"])
        assert eliminate_dead_code(cfg, ["t", "u"]) == 1
        assert [str(i) for i in cfg.block("s0").instrs] == ["t = a + b"]
        assert [str(i) for i in cfg.block("s1").instrs] == ["x = t"]

    def test_dce_performs_exactly_one_faint_solve(self):
        cfg = random_cfg(5, GeneratorConfig(statements=14))
        assert _faint_solves(lambda: dead_code_elimination(cfg)) == 1

    def test_eliminate_dead_code_one_faint_solve(self):
        cfg = straight_line(["t1 = a + b", "t2 = t1 + 1", "x = c + d"])
        solves = _faint_solves(lambda: eliminate_dead_code(cfg, ["t1", "t2"]))
        assert solves == 1
        assert [str(i) for i in cfg.block("s0").instrs] == ["x = c + d"]


def _faint_solves(fn) -> int:
    """Run *fn*; every solve must be a faint one with at least one sweep."""
    with tracing() as tracer:
        fn()
    solves = [e for e in tracer.events if e.name == "dataflow.solve"]
    assert [e.attrs["problem"] for e in solves] == ["faint"] * len(solves)
    assert all(e.attrs["sweeps"] >= 1 for e in solves)
    return len(solves)


def iterated_dce(cfg, observable=None, edited=None, candidates=None) -> int:
    """The oracle: classic liveness DCE iterated to a fixed point.

    Every block in a round decides against the same liveness fixpoint,
    re-solved from scratch between rounds; a store is removed when its
    target is not live right after it.  Same signature and in-place
    contract as :func:`dead_code_elimination`.
    """
    live_at_exit = sorted(
        cfg.variables() if observable is None else set(observable)
    )
    targets = None if candidates is None else set(candidates)
    removed = 0
    changed = True
    while changed:
        changed = False
        liveness = compute_liveness(cfg, live_at_exit=live_at_exit)
        for block in cfg:
            keep = []
            for i, instr in enumerate(block.instrs):
                if (
                    targets is None or instr.target in targets
                ) and not _is_live_after(
                    cfg, liveness, block.label, i, instr.target
                ):
                    removed += 1
                    changed = True
                else:
                    keep.append(instr)
            if len(keep) != len(block.instrs):
                block.instrs[:] = keep
                notify_cfg_edited(cfg, [block.label])
                if edited is not None:
                    edited.append(block.label)
    return removed


def _removed(before, after):
    """``(label, position)`` of every instruction of *before* gone from
    *after*.  Instructions are shared by ``CFG.copy``, so identity
    matches them."""
    gone = set()
    for block in before:
        kept = after.block(block.label).instrs
        k = 0
        for pos, instr in enumerate(block.instrs):
            if k < len(kept) and kept[k] is instr:
                k += 1
            else:
                gone.add((block.label, pos))
        assert k == len(kept), block.label
    return gone


def _observably_equal(original, transformed, observable, seed, branches):
    """Final observable values and branch decisions agree on random decks.

    With *branches* the conditions decide; that is for terminating
    programs.  Otherwise branches follow a short random decision
    sequence, the same for both programs.  That bounds every loop, so
    self-multiplying stores cannot grow their values without limit.
    """
    names = sorted(original.variables() if observable is None else observable)
    rng = random.Random(seed)
    for env in random_envs(original, 8, seed):
        decisions = None
        if not branches:
            decisions = [rng.random() < 0.5 for _ in range(12)]
        before = run(original, env, decisions=decisions)
        if not before.reached_exit:
            continue
        after = run(transformed, env, decisions=decisions)
        assert after.reached_exit
        assert after.decisions_taken == before.decisions_taken
        assert [after.env.get(v, 0) for v in names] == [
            before.env.get(v, 0) for v in names
        ]


SHAPES = ShapeConfig(blocks=10, back_edge_probability=0.6, instrs_per_block=3)


@st.composite
def _dce_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    # Generated programs terminate on every deck; shape graphs branch
    # on inputs and may loop forever.
    terminates = draw(st.booleans())
    if terminates:
        cfg = random_cfg(seed, GeneratorConfig(statements=10))
    else:
        cfg = random_shape_cfg(seed, SHAPES)
    names = sorted(cfg.variables())
    observable = None
    if draw(st.booleans()):
        observable = draw(st.lists(st.sampled_from(names), unique=True))
    candidates = None
    if draw(st.booleans()):
        candidates = draw(st.lists(st.sampled_from(names), unique=True))
    return seed, cfg, observable, candidates, terminates


class TestFaintOracle:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_dce_cases())
    def test_superset_idempotent_and_equivalent(self, case):
        seed, cfg, observable, candidates, terminates = case
        oracle = cfg.copy()
        iterated_dce(oracle, observable, candidates=candidates)
        work = cfg.copy()
        count = dead_code_elimination(
            work, observable=observable, candidates=candidates
        )
        removed = _removed(cfg, work)
        assert count == len(removed)
        assert _removed(cfg, oracle) <= removed
        assert dead_code_elimination(
            work, observable=observable, candidates=candidates
        ) == 0
        _observably_equal(cfg, work, observable, seed, terminates)

    def test_dead_loop_cycle_is_removed(self):
        # x feeds only itself around the loop and is overwritten before
        # the exit: iterated liveness keeps the cycle, faint DCE does not.
        cfg = compile_program("while (p) { x = x + 1; } x = 0;")
        oracle = cfg.copy()
        assert iterated_dce(oracle) == 0
        work = cfg.copy()
        assert dead_code_elimination(work) == 1
        assert "x = x + 1" in str(oracle)
        assert "x = x + 1" not in str(work) and "x = 1 + x" not in str(work)
        _observably_equal(cfg, work, None, 0, False)

    def test_pipeline_removes_a_dead_cycle_iteration_keeps(self, monkeypatch):
        # Generated loopy seed 86: `d = d * 9` repeats in a loop, and d
        # is overwritten after it.
        cfg = compile_program(generate_source(86, profile_config("loopy")))
        faint = pipeline.standard_pipeline(cfg).cfg
        monkeypatch.setattr(pipeline, "dead_code_elimination", iterated_dce)
        iterated = pipeline.standard_pipeline(cfg).cfg
        assert "d = 9 * d" in str(iterated)
        assert "d = 9 * d" not in str(faint)
        assert check_equivalence(cfg, faint, runs=10).equivalent
