"""Tests for the AnalysisManager: memoization, fingerprints, invalidation."""

from tests.helpers import diamond, do_while_invariant

from repro.analysis.liveness import liveness_of
from repro.analysis.local import compute_local_properties
from repro.core.lcm import analyze_lcm
from repro.core.pipeline import OptimizeConfig, optimize
from repro.dataflow.problem import DataflowProblem, GenKillTransfer
from repro.ir.instr import Assign
from repro.ir.expr import BinExpr, Var
from repro.obs.fingerprint import cfg_fingerprint
from repro.obs.manager import AnalysisManager, notify_cfg_mutated
from repro.ir.pretty import pretty_cfg
from repro.obs.trace import tracing


def availability_problem(cfg):
    local = compute_local_properties(cfg)
    return DataflowProblem.forward_intersect(
        "avail",
        local.universe.width,
        GenKillTransfer(gen=local.comp, keep=local.transp),
    )


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        assert cfg_fingerprint(diamond()) == cfg_fingerprint(diamond())
        assert cfg_fingerprint(diamond()) != cfg_fingerprint(do_while_invariant())

    def test_copy_shares_fingerprint(self):
        cfg = diamond()
        assert cfg_fingerprint(cfg) == cfg_fingerprint(cfg.copy())

    def test_mutation_changes_fingerprint(self):
        cfg = diamond()
        before = cfg_fingerprint(cfg)
        cfg.block("join").append(Assign("q", BinExpr("+", Var("a"), Var("b"))))
        assert cfg_fingerprint(cfg) != before


class TestMemoization:
    def test_second_solve_returns_same_object(self):
        manager = AnalysisManager()
        cfg = diamond()
        problem = availability_problem(cfg)
        first = manager.solve(cfg, problem)
        second = manager.solve(cfg, problem)
        assert second is first
        assert manager.stats.hits == 1 and manager.stats.misses == 1

    def test_cache_shared_across_equal_content_objects(self):
        manager = AnalysisManager()
        a, b = diamond(), diamond()
        assert manager.solve(a, availability_problem(a)) is manager.solve(
            b, availability_problem(b)
        )

    def test_disabled_manager_always_recomputes(self):
        manager = AnalysisManager(enabled=False)
        cfg = diamond()
        problem = availability_problem(cfg)
        assert manager.solve(cfg, problem) is not manager.solve(cfg, problem)
        assert manager.stats.hits == 0 and manager.stats.misses == 2
        assert len(manager) == 0

    def test_disabled_manager_traces_every_miss(self):
        # --no-cache runs must still report their cache traffic: the
        # disabled path bumps stats.misses AND the cache.miss counter,
        # so traces and stats agree.
        manager = AnalysisManager(enabled=False)
        cfg = diamond()
        problem = availability_problem(cfg)
        with tracing() as tracer:
            manager.solve(cfg, problem)
            manager.solve(cfg, problem)
        assert tracer.counters.get("cache.miss", 0) == 2
        assert "cache.hit" not in tracer.counters
        assert manager.stats.misses == tracer.counters["cache.miss"]

    def test_distinct_strategies_cached_separately(self):
        manager = AnalysisManager()
        cfg = diamond()
        problem = availability_problem(cfg)
        rr = manager.solve(cfg, problem)
        wl = manager.solve(cfg, problem, strategy="worklist")
        assert rr is not wl
        assert rr.inof == wl.inof and rr.outof == wl.outof

    def test_liveness_of_routes_through_the_memo_tier(self):
        manager = AnalysisManager()
        cfg = diamond()
        first = liveness_of(cfg, manager=manager)
        second = liveness_of(cfg, manager=manager)
        assert first is second
        assert manager.stats.hits == 1
        assert liveness_of(cfg).livein.keys() == first.livein.keys()

    def test_liveness_is_memoized_by_content(self):
        manager = AnalysisManager()
        cfg = do_while_invariant()
        liveness_of(cfg, manager=manager)
        before = manager.stats.misses
        liveness_of(cfg.copy(), manager=manager)  # same content, new object
        assert manager.stats.misses == before
        assert manager.stats.hits == 1


class TestInvalidation:
    def test_mutation_hook_yields_fresh_results(self):
        manager = AnalysisManager()
        cfg = diamond()
        stale = manager.solve(cfg, availability_problem(cfg))
        cfg.block("join").append(Assign("q", BinExpr("*", Var("c"), Var("d"))))
        notify_cfg_mutated(cfg)
        assert manager.stats.invalidations == 1
        fresh = manager.solve(cfg, availability_problem(cfg))
        assert fresh is not stale  # new content, new solution

    def test_cached_solution_bit_identical_across_transform(self):
        # The acceptance check: a cached Solution for the *original*
        # content must come back bit-identical after an invalidating
        # transform round-trips the graph through mutation and back.
        manager = AnalysisManager()
        cfg = diamond()
        problem = availability_problem(cfg)
        before = manager.solve(cfg, problem)
        result = optimize(cfg, "lcm", manager=manager)  # mutates a copy
        assert result.cfg is not cfg
        after = manager.solve(cfg, problem)
        assert after is before
        assert after.inof == before.inof and after.outof == before.outof


class TestSolveEachProblemOnce:
    def test_two_lcm_runs_one_manager_solve_once(self):
        # ISSUE acceptance: running the LCM pipeline twice on the same
        # CFG through one AnalysisManager must solve each dataflow
        # problem exactly once — verified through the trace events.
        manager = AnalysisManager()
        cfg = do_while_invariant()
        config = OptimizeConfig(run_local_cse=False, validate=False)
        with tracing() as tracer:
            first = optimize(cfg, "lcm", config=config, manager=manager)
            solves_after_first = len(tracer.spans("dataflow.solve"))
            second = optimize(cfg, "lcm", config=config, manager=manager)
            solves_after_second = len(tracer.spans("dataflow.solve"))
        assert solves_after_first > 0
        assert solves_after_second == solves_after_first
        assert tracer.counters.get("cache.hit", 0) >= 1
        assert pretty_cfg(first.cfg) == pretty_cfg(second.cfg)

    def test_memoized_analysis_is_same_object(self):
        manager = AnalysisManager()
        cfg = diamond()
        assert analyze_lcm(cfg, manager=manager) is analyze_lcm(
            cfg, manager=manager
        )
