"""Partial dead-code elimination by assignment sinking.

The authors' own dual of PRE (Knoop, Rüthing & Steffen, *Partial Dead
Code Elimination*, PLDI 1994): where PRE hoists *computations* against
the control flow to kill partial redundancy, PDE sinks *assignments*
with the control flow to kill partial deadness — an assignment that is
dead along some paths is moved down to the arms that actually need it
and disappears from the others.

This module implements the sinking core under this library's
observable-state semantics (final variable values are program output,
so "dead" means *overwritten before any use*, never merely "unread"):

* only a block's **last** assignment is a sinking candidate (nothing
  below it in the block can interfere), and the block terminator must
  not read its target;
* at a branch, the assignment moves onto exactly the outgoing edges
  where its target is live-in (edge splitting gives each arm a landing
  block, precisely as for PRE insertions); arms where the target is
  dead simply lose the assignment;
* if the target is dead on *every* successor, the assignment is fully
  dead and is removed outright;
* rounds iterate to a fixed point, so chains of sinkable assignments
  bubble down one step per round.

Per-path evaluation counts never increase (the assignment runs on a
subset of the paths it ran on before), and they strictly decrease on
the dead arms — the mirrored image of the PRE guarantee, checked by
the same oracles in the tests and by benchmark E4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.analysis.liveness import compute_liveness
from repro.core.transform import TransformResult
from repro.ir.cfg import CFG
from repro.ir.instr import Assign


@dataclass
class SinkReport:
    """What the sinking pass did."""

    sunk: List[Tuple[str, str, Tuple[str, ...]]] = field(default_factory=list)
    removed: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def actions(self) -> int:
        return len(self.sunk) + len(self.removed)

    def describe(self) -> str:
        lines = [
            f"sunk {instr!s} from {block!r} into {', '.join(targets)}"
            for block, instr, targets in self.sunk
        ]
        lines += [
            f"removed fully dead {instr!s} from {block!r}"
            for block, instr in self.removed
        ]
        return "\n".join(lines) or "nothing to sink"


def _sinkable(cfg: CFG, label: str) -> Optional[Assign]:
    """The block's last assignment, if the terminator doesn't read it."""
    block = cfg.block(label)
    if not block.instrs:
        return None
    instr = block.instrs[-1]
    if block.terminator is not None and instr.target in block.terminator.uses():
        return None
    return instr


def _one_round(cfg: CFG, observable, report: SinkReport) -> bool:
    liveness = compute_liveness(cfg, live_at_exit=observable)
    for label in list(cfg.labels):
        if label in (cfg.entry, cfg.exit):
            continue
        instr = _sinkable(cfg, label)
        if instr is None:
            continue
        succs = cfg.succs(label)
        if len(succs) < 2:
            continue  # sinking pays only where paths diverge
        if len(set(succs)) != len(succs):
            continue  # parallel edges: nothing to separate
        live_targets = [
            s for s in succs if liveness.is_live_in(s, instr.target)
        ]
        if len(live_targets) == len(succs):
            continue  # live everywhere: no deadness to exploit
        block = cfg.block(label)
        block.instrs.pop()
        if not live_targets:
            report.removed.append((label, str(instr)))
            return True
        landing_labels = []
        for succ in live_targets:
            if len(cfg.preds(succ)) == 1:
                cfg.block(succ).instrs.insert(0, instr)
                landing_labels.append(succ)
            else:
                landing = cfg.split_edge(label, succ, f"sink_{label}_{succ}")
                landing.instrs.insert(0, instr)
                landing_labels.append(landing.label)
        report.sunk.append((label, str(instr), tuple(landing_labels)))
        return True
    return False


def sink_assignments(
    cfg: CFG,
    observable: Optional[Set[str]] = None,
    max_rounds: int = 200,
) -> Tuple[TransformResult, SinkReport]:
    """Partially-dead-code-eliminate *cfg* (input never mutated).

    Args:
        cfg: the program.
        observable: variables whose final values matter (default: all
            of the program's variables — the interpreter's semantics).
        max_rounds: fixed-point bound; each round performs one sinking
            step, so this caps the total number of moves.

    Each round re-solves liveness on the private copy it edits, so no
    mutation hook is needed.
    """
    work = cfg.copy()
    obs = set(observable) if observable is not None else work.variables()
    report = SinkReport()
    exit_names = sorted(obs)
    for _ in range(max_rounds):
        if not _one_round(work, exit_names, report):
            break
    result = TransformResult(
        original=cfg, cfg=work, placements=[], temps=set()
    )
    return result, report
