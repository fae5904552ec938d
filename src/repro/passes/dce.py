"""Whole-program dead code elimination.

Removes assignments whose target is overwritten before ever being read.
Under this library's execution model the final environment is
observable, so — unlike classic compiler DCE — variables are considered
live at the program exit by default; only *shadowed* stores are dead.
Passes that know better (e.g. the PRE engine cleaning up its own
temporaries, which are never observable) can narrow the observable set.

Right-hand sides in this IR are pure, so removal is always sound for a
dead target.

Liveness is solved **once** per call (through the
:class:`~repro.obs.manager.AnalysisManager` memo tier when a manager is
given) and then patched incrementally between fixpoint rounds by
:class:`~repro.dataflow.incremental.IncrementalLiveness` — the
re-solve-the-world-per-round loop this pass shipped with is gone.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.dataflow.incremental import IncrementalLiveness
from repro.ir.cfg import CFG
from repro.obs.manager import AnalysisManager, notify_cfg_edited


def dead_code_elimination(
    cfg: CFG,
    observable: Optional[Iterable[str]] = None,
    manager: Optional[AnalysisManager] = None,
    blocks: Optional[Iterable[str]] = None,
    edited: Optional[List[str]] = None,
    candidates: Optional[Iterable[str]] = None,
) -> int:
    """Remove dead assignments from *cfg* in place; returns the count.

    Args:
        cfg: the program (mutated).
        observable: variables whose final value matters (live at exit).
            Defaults to every variable of the program — the
            conservative choice matching the interpreter's semantics.
            Names the program never mentions are honoured, not dropped:
            an assignment to an observable-but-otherwise-unused name is
            kept.
        manager: optional :class:`~repro.obs.manager.AnalysisManager`;
            the single full liveness solve routes through its memo
            tiers and shares its dense plan.
        blocks: restrict the removal sweep to these labels.  Liveness
            is a backward analysis, so scoping is exact whenever
            *blocks* covers the edited blocks and everything that can
            reach them; between rounds the scope grows by the backward
            closure of this call's own removals, since a removal can
            only expose new dead stores at or upstream of itself.
        edited: when given, labels of blocks actually changed are
            appended (possibly repeatedly across rounds).
        candidates: when given, only assignments to these variables
            are removed; every other assignment is kept, dead or not.
    """
    live_at_exit = (
        sorted(cfg.variables()) if observable is None else sorted(set(observable))
    )
    if manager is None:
        engine = IncrementalLiveness(cfg, live_at_exit=live_at_exit)
    else:
        engine = manager.liveness(cfg, live_at_exit=live_at_exit)
    engine.solve()
    scope = None if blocks is None else set(blocks)
    targets = None if candidates is None else set(candidates)
    removed = 0
    changed = True
    while changed:
        changed = False
        round_edited: List[str] = []
        for block in cfg:
            if scope is not None and block.label not in scope:
                continue
            keep: List = []
            for i, instr in enumerate(block.instrs):
                if (
                    targets is None or instr.target in targets
                ) and not engine.is_live_after(block.label, i, instr.target):
                    removed += 1
                    changed = True
                else:
                    keep.append(instr)
            if len(keep) != len(block.instrs):
                block.instrs[:] = keep
                round_edited.append(block.label)
        if round_edited:
            # Every block in a round decides against the same fixpoint
            # (the old per-round re-solve semantics); the incremental
            # patch lands at the round boundary.
            notify_cfg_edited(cfg, round_edited)
            if manager is None:
                engine.blocks_edited(round_edited)
            if scope is not None:
                scope |= cfg.reaching(round_edited)
            if edited is not None:
                edited.extend(round_edited)
    return removed
