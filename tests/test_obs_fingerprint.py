"""Incremental fingerprints and dirty-region scheduling, pinned.

Four contracts from docs/OBSERVABILITY.md and docs/PERFORMANCE.md:

* the two-layer digest (:func:`block_fingerprint` +
  :func:`combine_fingerprints`) equals the from-scratch
  :func:`cfg_fingerprint` and is insensitive to the digest dict's
  iteration order but sensitive to everything that is content — block
  order, entry/exit, edges (via terminators), edge weights;
* the compact encoding is injective — two graphs share a digest
  exactly when their :func:`~repro.ir.serialize.cfg_to_dict` outputs
  are equal — and stable: a pinned graph hashes to a pinned literal
  under any ``PYTHONHASHSEED``;
* a :class:`FingerprintState` kept current through edit scripts (and
  :meth:`~FingerprintState.derive` across graph copies) always agrees
  with hashing from scratch, while paying ``fingerprint.incr``
  refreshes instead of ``fingerprint.full`` re-hashes;
* ``run_pipeline(scheduling="dirty")`` produces bit-identical IR and
  rewrite tallies to the whole-CFG reference arm, on handwritten,
  random reducible and random irreducible graphs alike.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import diamond, do_while_invariant, straight_line

from repro.api import optimize_cfg
from repro.bench.generators import GeneratorConfig, random_cfg
from repro.bench.shapegen import ShapeConfig, random_shape_cfg
from repro.ir.builder import CFGBuilder
from repro.ir.block import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.expr import BinExpr, Const, UnaryExpr, Var
from repro.ir.instr import Assign, CondBranch, Halt, Jump
from repro.ir.pretty import pretty_cfg
from repro.ir.serialize import SerializeError, cfg_to_dict
from repro.obs.fingerprint import (
    FingerprintState,
    block_fingerprint,
    cfg_fingerprint,
    combine_fingerprints,
)
from repro.obs.manager import (
    AnalysisManager,
    notify_cfg_edited,
    notify_cfg_mutated,
)
from repro.obs.trace import span, tracing
from repro.passes.pipeline import run_pipeline

SMALL = GeneratorConfig(statements=8, max_depth=2)
SHAPES = ShapeConfig(blocks=8, back_edge_probability=0.5)

quick = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def _digests(cfg):
    return {block.label: block_fingerprint(block) for block in cfg}


class TestCombine:
    def test_two_layer_digest_equals_from_scratch(self):
        cfg = diamond()
        assert combine_fingerprints(cfg, _digests(cfg)) == cfg_fingerprint(cfg)

    def test_digest_dict_iteration_order_is_not_content(self):
        cfg = diamond()
        digests = _digests(cfg)
        reversed_insertion = dict(reversed(list(digests.items())))
        assert list(reversed_insertion) != list(digests)
        assert combine_fingerprints(cfg, reversed_insertion) == (
            combine_fingerprints(cfg, digests)
        )

    def test_extra_digests_for_removed_blocks_are_ignored(self):
        cfg = diamond()
        digests = _digests(cfg)
        digests["ghost"] = bytes(16)
        assert combine_fingerprints(cfg, digests) == cfg_fingerprint(cfg)

    def test_block_order_is_content(self):
        def build(arms):
            b = CFGBuilder()
            b.block("cond", "p = a < b").branch("p", "left", "right")
            for label, instrs in arms:
                b.block(label, *instrs).jump("join")
            b.block("join", "y = a + b").to_exit()
            return b.build()

        first = build([("left", ["x = a + b"]), ("right", [])])
        second = build([("right", []), ("left", ["x = a + b"])])
        assert {bl.label for bl in first} == {bl.label for bl in second}
        assert cfg_fingerprint(first) != cfg_fingerprint(second)

    def test_edges_are_content_via_terminators(self):
        base = diamond()
        flipped = diamond()
        flipped.block("cond").terminator = CondBranch(
            Var("p"), "right", "left"
        )
        flipped.notify_terminator_changed()
        assert cfg_fingerprint(flipped) != cfg_fingerprint(base)

    def test_edge_weights_are_content(self):
        cfg = diamond()
        before = cfg_fingerprint(cfg)
        cfg.set_weight(("cond", "left"), 9)
        assert cfg_fingerprint(cfg) != before


# -- the compact encoding: injective and stable ------------------------------

LABELS = ["entry", "exit", "a", "b", "1"]
NAMES = ["x", "a", "1"]

atoms = st.one_of(
    st.sampled_from(NAMES).map(Var), st.integers(-1, 2).map(Const)
)
exprs = st.one_of(
    atoms,
    st.builds(UnaryExpr, st.sampled_from(["-", "!"]), atoms),
    st.builds(BinExpr, st.sampled_from(["+", "-"]), atoms, atoms),
)
instrs = st.builds(Assign, st.sampled_from(NAMES), exprs)
targets = st.sampled_from(LABELS)
terminators = st.one_of(
    st.builds(Jump, targets),
    st.builds(CondBranch, atoms, targets, targets),
    st.just(Halt()),
)


@st.composite
def graph_specs(draw):
    """Plain-data graphs over tiny alphabets, so equal pairs do occur.

    Weights may sit on pairs that are not edges: what a weight set on
    an edge that was later removed leaves behind.
    """
    labels = draw(st.lists(targets, unique=True, min_size=1, max_size=4))
    return {
        "entry": draw(targets),
        "exit": draw(targets),
        "blocks": [
            (label, draw(st.lists(instrs, max_size=2)), draw(terminators))
            for label in labels
        ],
        "weights": draw(
            st.lists(
                st.tuples(targets, targets, st.integers(1, 3)), max_size=2
            )
        ),
    }


def build(spec):
    cfg = CFG(spec["entry"], spec["exit"])
    for label, body, term in spec["blocks"]:
        cfg.add_block(BasicBlock(label, list(body), term))
    for src, dst, weight in spec["weights"]:
        cfg.set_weight((src, dst), weight)
    return cfg


def _flip_atom(atom):
    if type(atom) is Const:
        return Var(str(atom.value))
    if atom.name.lstrip("-").isdigit():
        return Const(int(atom.name))
    return atom


def _rewrite_expr(spec, pick, rewrite):
    sites = [
        (b, i)
        for b, (_, body, _) in enumerate(spec["blocks"])
        for i in range(len(body))
    ]
    if not sites:
        return spec
    b, i = sites[pick % len(sites)]
    label, body, term = spec["blocks"][b]
    body = list(body)
    body[i] = Assign(body[i].target, rewrite(body[i].expr))
    blocks = list(spec["blocks"])
    blocks[b] = (label, body, term)
    return dict(spec, blocks=blocks)


def mutate_var_const(spec, pick):
    def rewrite(expr):
        if type(expr) is UnaryExpr:
            return UnaryExpr(expr.op, _flip_atom(expr.operand))
        if type(expr) is BinExpr:
            return BinExpr(expr.op, _flip_atom(expr.left), expr.right)
        return _flip_atom(expr)

    return _rewrite_expr(spec, pick, rewrite)


def mutate_unary_binary(spec, pick):
    def rewrite(expr):
        if type(expr) is UnaryExpr and expr.op == "-":
            return BinExpr("-", expr.operand, expr.operand)
        if type(expr) is BinExpr and expr.op == "-":
            return UnaryExpr("-", expr.left)
        return expr

    return _rewrite_expr(spec, pick, rewrite)


def mutate_label_with_target(spec, pick):
    """Block ``m`` jumping to ``n`` becomes block ``n`` jumping to ``m``."""
    b = pick % len(spec["blocks"])
    label, body, term = spec["blocks"][b]
    if type(term) is Jump:
        target = term.target
        term = Jump(label)
    elif type(term) is CondBranch:
        target = term.then_target
        term = CondBranch(term.cond, label, term.else_target)
    else:
        return spec
    if target != label and any(t == target for t, _, _ in spec["blocks"]):
        return spec  # the new label would clash with another block
    blocks = list(spec["blocks"])
    blocks[b] = (target, body, term)
    return dict(spec, blocks=blocks)


def mutate_entry_exit(spec, pick):
    return dict(spec, entry=spec["exit"], exit=spec["entry"])


def mutate_stale_weight(spec, pick):
    """Weight a pair that is not a current edge (a removed edge's)."""
    edges = set(build(spec).edges())
    stale = [
        (src, dst)
        for src in LABELS
        for dst in LABELS
        if (src, dst) not in edges
    ]
    src, dst = stale[pick % len(stale)]
    weights = list(spec["weights"]) + [(src, dst, 2 + pick % 3)]
    return dict(spec, weights=weights)


MUTATIONS = [
    mutate_var_const,
    mutate_unary_binary,
    mutate_label_with_target,
    mutate_entry_exit,
    mutate_stale_weight,
]


def _assert_digest_iff_content(first, second):
    same_content = cfg_to_dict(first) == cfg_to_dict(second)
    same_digest = cfg_fingerprint(first) == cfg_fingerprint(second)
    assert same_digest == same_content, (
        cfg_to_dict(first), cfg_to_dict(second)
    )


def _graph(blocks, entry="a", exit="a"):
    spec = {"entry": entry, "exit": exit, "blocks": blocks, "weights": []}
    return build(spec)


class TestEncoding:
    @quick
    @given(graph_specs(), graph_specs())
    def test_random_pairs_digest_iff_content(self, first, second):
        _assert_digest_iff_content(build(first), build(second))

    @settings(max_examples=100, deadline=None)
    @given(graph_specs(), st.sampled_from(MUTATIONS), st.integers(0, 100))
    def test_single_field_mutations_digest_iff_content(
        self, spec, mutate, pick
    ):
        _assert_digest_iff_content(build(spec), build(mutate(spec, pick)))

    @pytest.mark.parametrize(
        "first, second",
        [
            (Var("1"), Const(1)),
            (UnaryExpr("-", Var("a")), BinExpr("-", Var("a"), Var("a"))),
            (
                BinExpr("-", Var("a"), Const(1)),
                BinExpr("-", Const(1), Var("a")),
            ),
            (Var("x"), UnaryExpr("-", Var("x"))),
        ],
    )
    def test_confusable_expressions_differ(self, first, second):
        a = _graph([("a", [Assign("x", first)], Halt())])
        b = _graph([("a", [Assign("x", second)], Halt())])
        assert cfg_fingerprint(a) != cfg_fingerprint(b)

    def test_label_swapped_with_branch_target_differs(self):
        forward = _graph([("a", [], Jump("b"))], "entry", "exit")
        swapped = _graph([("b", [], Jump("a"))], "entry", "exit")
        assert cfg_fingerprint(forward) != cfg_fingerprint(swapped)

    def test_entry_exit_swap_differs(self):
        cfg = diamond()
        swapped = cfg.copy()
        swapped.entry, swapped.exit = cfg.exit, cfg.entry
        assert cfg_fingerprint(swapped) != cfg_fingerprint(cfg)

    def test_weight_on_a_removed_edge_is_not_content(self):
        cfg = diamond()
        plain = cfg_fingerprint(cfg)
        cfg.set_weight(("right", "join"), 7)
        assert cfg_fingerprint(cfg) != plain
        # Drop the edge right -> join: the stale weight stops counting.
        cfg.block("right").terminator = Jump(cfg.exit)
        cfg.notify_terminator_changed()
        fresh = diamond()
        fresh.block("right").terminator = Jump(fresh.exit)
        fresh.notify_terminator_changed()
        assert cfg_fingerprint(cfg) == cfg_fingerprint(fresh)

    def test_unterminated_block_raises(self):
        cfg = CFG("a", "a")
        cfg.add_block(BasicBlock("a", [Assign("x", Const(1))]))
        with pytest.raises(SerializeError, match="unterminated"):
            cfg_fingerprint(cfg)


#: A fixed graph and its digest, pinned: any change to the encoding
#: must bump ``COMBINE_VERSION`` and this literal together.
PINNED_PROGRAM = """
from repro.ir.builder import CFGBuilder
from repro.obs.fingerprint import cfg_fingerprint

b = CFGBuilder()
b.block("cond", "p = a < b").branch("p", "left", "right")
b.block("left", "x = a + b", "z = -x").jump("join")
b.block("right", "x = 1").jump("join")
b.block("join", "y = a + b").to_exit()
cfg = b.build()
cfg.set_weight(("cond", "left"), 3)
print(cfg_fingerprint(cfg))
"""
PINNED_DIGEST = (
    "e1a2934dd563749640f02dad2b9fbe74085a698b00173e685cbe3e8750dfdb3c"
)


class TestStability:
    def test_digest_is_pinned_and_hash_seed_independent(self):
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        digests = set()
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", PINNED_PROGRAM],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(done.stdout.strip())
        assert digests == {PINNED_DIGEST}


class TestFingerprintState:
    def test_edit_refresh_matches_scratch(self):
        cfg = diamond()
        state = FingerprintState.of(cfg)
        assert state.value == cfg_fingerprint(cfg)
        cfg.block("join").append(Assign("q", BinExpr("+", Var("a"), Var("b"))))
        state.mark_edited(["join"])
        assert state.current(cfg) == cfg_fingerprint(cfg)

    def test_refresh_handles_added_and_removed_blocks(self):
        cfg = diamond()
        state = FingerprintState.of(cfg)
        split = cfg.split_edge("right", "join", "landing")
        split.append(Assign("t", BinExpr("+", Var("a"), Var("b"))))
        state.mark_edited(["right", split.label])
        assert state.current(cfg) == cfg_fingerprint(cfg)
        # Undo the split: remove the landing block, jump straight again.
        cfg.remove_block(split.label)
        cfg.block("right").terminator = Jump("join")
        cfg.notify_terminator_changed()
        state.mark_edited(["right", split.label])
        assert state.current(cfg) == cfg_fingerprint(cfg)

    def test_derive_seeds_a_copy(self):
        cfg = diamond()
        state = FingerprintState.of(cfg)
        copy = cfg.copy()
        copy.block("left").append(
            Assign("z", BinExpr("+", Var("c"), Var("d")))
        )
        derived = state.derive(["left"])
        assert derived.value is None
        assert derived.current(copy) == cfg_fingerprint(copy)
        # The base state is untouched by the copy's refresh.
        assert state.current(cfg) == cfg_fingerprint(cfg)

    @quick
    @given(seeds, st.lists(st.integers(0, 10_000), min_size=1, max_size=6))
    def test_edit_scripts_agree_with_scratch(self, seed, script):
        cfg = random_cfg(seed, SMALL)
        state = FingerprintState.of(cfg)
        for step, pick in enumerate(script):
            labels = list(cfg.labels)
            label = labels[pick % len(labels)]
            block = cfg.block(label)
            if block.instrs and pick % 3 == 0:
                del block.instrs[0]
            else:
                block.append(
                    Assign(f"ed{step}", BinExpr("+", Var("a"), Var("b")))
                )
            state.mark_edited([label])
            assert state.current(cfg) == cfg_fingerprint(cfg)


class TestManagerCounters:
    def test_one_full_hash_then_incremental(self):
        manager = AnalysisManager()
        cfg = diamond()
        with tracing() as tracer:
            first = manager.fingerprint(cfg)
            assert manager.fingerprint(cfg) == first
            cfg.block("join").append(
                Assign("q", BinExpr("+", Var("a"), Var("b")))
            )
            notify_cfg_edited(cfg, ["join"])
            second = manager.fingerprint(cfg)
        assert second == cfg_fingerprint(cfg) != first
        assert tracer.counters.get("fingerprint.full", 0) == 1
        assert tracer.counters.get("fingerprint.incr", 0) == 1

    def test_structural_notify_with_labels_stays_incremental(self):
        manager = AnalysisManager()
        cfg = diamond()
        with tracing() as tracer:
            manager.fingerprint(cfg)
            split = cfg.split_edge("left", "join", "landing")
            notify_cfg_mutated(cfg, labels=["left", split.label])
            patched = manager.fingerprint(cfg)
        assert patched == cfg_fingerprint(cfg)
        assert tracer.counters.get("fingerprint.full", 0) == 1
        assert tracer.counters.get("fingerprint.incr", 0) == 1

    @quick
    @given(seeds, st.lists(st.integers(0, 10_000), min_size=1, max_size=8))
    def test_manager_digest_matches_scratch_oracle(self, seed, script):
        # The manager's incremental digest, kept current only through
        # the notification hooks, against a from-scratch hash.
        manager = AnalysisManager()
        cfg = random_cfg(seed, SMALL)
        manager.fingerprint(cfg)
        for step, pick in enumerate(script):
            labels = list(cfg.labels)
            label = labels[pick % len(labels)]
            block = cfg.block(label)
            action = pick % 4
            if action == 0 and block.instrs:
                del block.instrs[0]
                notify_cfg_edited(cfg, [label])
            elif action == 1 and block.successors():
                split = cfg.split_edge(label, block.successors()[0])
                split.append(
                    Assign(f"ed{step}", BinExpr("-", Var("a"), Const(step)))
                )
                notify_cfg_mutated(cfg, labels=[label, split.label])
            elif action == 2 and block.successors():
                cfg.set_weight((label, block.successors()[0]), 2 + step)
                notify_cfg_mutated(cfg)
            else:
                block.append(
                    Assign(f"ed{step}", UnaryExpr("-", Var("a")))
                )
                notify_cfg_edited(cfg, [label])
            assert manager.fingerprint(cfg) == cfg_fingerprint(cfg)

    def test_optimize_full_hash_budget(self):
        # The end-to-end chain (api -> lcse derive -> transform derive
        # -> cleanup edits): at most one whole-graph hash per item.
        manager = AnalysisManager()
        cfg = do_while_invariant()
        with tracing() as tracer:
            outcome = optimize_cfg(cfg, "lcm", manager=manager)
        assert outcome.fingerprint == cfg_fingerprint(outcome.cfg)
        assert tracer.counters.get("fingerprint.full", 0) <= 2


class TestSpanNoOp:
    def test_span_is_shared_null_context_when_tracing_off(self):
        first = span("anything", k=1)
        second = span("other")
        assert first is second
        with first as handle:
            handle.set(extra=2)  # accepted and discarded


def _assert_schedulings_agree(cfg):
    full = run_pipeline(cfg, "lcm", scheduling="full")
    dirty = run_pipeline(cfg, "lcm", scheduling="dirty")
    assert pretty_cfg(dirty.cfg) == pretty_cfg(full.cfg)
    assert cfg_fingerprint(dirty.cfg) == cfg_fingerprint(full.cfg)
    assert dirty.rewrites == full.rewrites


class TestDirtySchedulingEqualsFull:
    def test_on_handwritten_graphs(self):
        _assert_schedulings_agree(diamond())
        _assert_schedulings_agree(do_while_invariant())
        # DCE drops `y = 5` in round one; copy propagation then rewrites
        # `z = x` in round two, which leaves `x = y` dead for a second
        # DCE run.
        _assert_schedulings_agree(
            straight_line(["x = y", "y = 5", "z = x", "y = 7", "x = 0"])
        )

    @quick
    @given(seeds)
    def test_on_random_reducible_cfgs(self, seed):
        _assert_schedulings_agree(random_cfg(seed, SMALL))

    @quick
    @given(seeds)
    def test_on_random_irreducible_cfgs(self, seed):
        _assert_schedulings_agree(random_shape_cfg(seed, SHAPES))

    @quick
    @given(seeds)
    def test_manager_fingerprint_matches_scratch_after_pipeline(self, seed):
        cfg = random_cfg(seed, SMALL)
        manager = AnalysisManager()
        manager.fingerprint(cfg)
        result = run_pipeline(cfg, "lcm", manager=manager)
        assert manager.fingerprint(result.cfg) == cfg_fingerprint(result.cfg)
