"""Shared graph builders and assertion helpers for the test-suite."""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.dataflow.bitvec import BitVector
from repro.ir.builder import CFGBuilder
from repro.ir.cfg import CFG
from repro.ir.expr import BinExpr, Var


AB = BinExpr("+", Var("a"), Var("b"))
CD = BinExpr("+", Var("c"), Var("d"))


def diamond() -> CFG:
    """cond -> (left computes a+b | right empty) -> join computes a+b."""
    b = CFGBuilder()
    b.block("cond", "p = a < b").branch("p", "left", "right")
    b.block("left", "x = a + b").jump("join")
    b.block("right").jump("join")
    b.block("join", "y = a + b").to_exit()
    return b.build()


def straight_line(*instr_groups: Iterable[str]) -> CFG:
    """A chain of blocks s0 -> s1 -> ... with the given instructions."""
    b = CFGBuilder()
    labels = [f"s{i}" for i in range(len(instr_groups))]
    for i, instrs in enumerate(instr_groups):
        handle = b.block(labels[i], *instrs)
        if i + 1 < len(labels):
            handle.jump(labels[i + 1])
        else:
            handle.to_exit()
    return b.build()


def do_while_invariant() -> CFG:
    """init -> body[z=a+b] <-> body (do-while), then after[w=a+b]."""
    b = CFGBuilder()
    b.block("init", "i = 0").jump("body")
    b.block("body", "z = a + b", "i = i + 1", "t = i < n").branch(
        "t", "body", "after"
    )
    b.block("after", "w = a + b").to_exit()
    return b.build()


def full_redundancy() -> CFG:
    """first computes a+b; second recomputes it (fully redundant)."""
    return straight_line(["x = a + b"], ["y = a + b"])


def names(vec_map: Dict[str, BitVector], index: int) -> Set[str]:
    """The labels whose vector has bit *index* set."""
    return {label for label, vec in vec_map.items() if index in vec}


def _is_live_after(cfg, liveness, label, index, var):
    """Is *var* live immediately after instruction *index* of *label*?

    Scan the block tail, then fall back on a solved
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
