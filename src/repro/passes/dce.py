"""Whole-program dead code elimination by faint-variable analysis.

Removes assignments whose value can never reach an observable result.
Under this library's execution model the final environment is
observable, so — unlike classic compiler DCE — variables are considered
live at the program exit by default; only *shadowed* stores are dead.
Passes that know better (e.g. the PRE engine cleaning up its own
temporaries, which are never observable) can narrow the observable set.

Right-hand sides in this IR are pure, so removal is always sound for a
dead target.

The pass is one backward **strong-liveness** (faint-variable) solve
and one removal sweep.  A use counts only when the assignment making
it is itself live, so an assignment whose target is not live after it
is *faint*: it neither kills nor uses anything.  The least fixpoint
removes every store that iterating classic liveness DCE removes, plus
dead cycles iteration keeps (``x = x + 1`` in a loop when ``x`` is
overwritten before the exit).  Equations, per block, bottom-up from
``live = OUT(n) ∪ uses(terminator)``::

    x = e, x live or not a candidate:  live = (live − {x}) ∪ vars(e)
    x = e, otherwise (faint):          live unchanged
    OUT(n) = ∪_s IN(s)                 (the observable set at the exit)

The transfer is distributive but not gen/kill, so it runs as plain int
sweeps over the dense plan's backward order.  Faint elimination is
idempotent: a second call on its output removes nothing.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.dataflow.dense import compile_plan
from repro.ir.cfg import CFG
from repro.obs.manager import notify_cfg_edited
from repro.obs.trace import span


def _faint_live_in(code, live: int) -> int:
    """Walk one block bottom-up; *code* is its reversed instruction list."""
    for bit, uses, candidate in code:
        if live & bit or not candidate:
            live = (live & ~bit) | uses
    return live


def dead_code_elimination(
    cfg: CFG,
    observable: Optional[Iterable[str]] = None,
    edited: Optional[List[str]] = None,
    candidates: Optional[Iterable[str]] = None,
) -> int:
    """Remove faint assignments from *cfg* in place; returns the count.

    Args:
        cfg: the program (mutated).
        observable: variables whose final value matters (live at exit).
            Defaults to every variable of the program — the
            conservative choice matching the interpreter's semantics.
            Names the program never mentions change nothing.
        edited: when given, labels of blocks actually changed are
            appended.
        candidates: when given, only assignments to these variables
            are removed; every other assignment is kept, and its uses
            count, dead or not.
    """
    index = {name: i for i, name in enumerate(sorted(cfg.variables()))}

    def mask(names) -> int:
        bits = 0
        for name in names:
            bits |= 1 << index[name]
        return bits

    if observable is None:
        boundary = (1 << len(index)) - 1
    else:
        boundary = mask(v for v in observable if v in index)
    targets = None if candidates is None else set(candidates)

    plan = compile_plan(cfg)
    labels, succs = plan.labels, plan.succs
    n = len(labels)
    codes = []
    exposed = []
    for label in labels:
        block = cfg.block(label)
        codes.append([
            (
                1 << index[instr.target],
                mask(instr.uses()),
                targets is None or instr.target in targets,
            )
            for instr in reversed(block.instrs)
        ])
        term = block.terminator
        exposed.append(0 if term is None else mask(term.uses()))

    with span(
        "dataflow.solve", problem="faint", strategy="dense"
    ) as solve_span:
        live_in = [0] * n
        live_out = [0] * n
        sweeps = 0
        node_visits = 0
        changed = True
        while changed:
            changed = False
            sweeps += 1
            for i in plan.backward_order:
                node_visits += 1
                if i == plan.exit:
                    out = boundary
                else:
                    out = 0
                    for s in succs[i]:
                        out |= live_in[s]
                inn = _faint_live_in(codes[i], out | exposed[i])
                if inn != live_in[i] or out != live_out[i]:
                    live_in[i] = inn
                    live_out[i] = out
                    changed = True
        solve_span.set(
            sweeps=sweeps, node_visits=node_visits, bitvec_ops=0, blocks=n,
            width=len(index), backend="dense",
        )

    removed = 0
    changed_labels: List[str] = []
    for i, label in enumerate(labels):
        block = cfg.block(label)
        live = live_out[i] | exposed[i]
        keep = []
        for instr, (bit, uses, candidate) in zip(
            reversed(block.instrs), codes[i]
        ):
            if live & bit or not candidate:
                live = (live & ~bit) | uses
                keep.append(instr)
        if len(keep) != len(block.instrs):
            removed += len(block.instrs) - len(keep)
            keep.reverse()
            block.instrs[:] = keep
            changed_labels.append(label)
    if changed_labels:
        notify_cfg_edited(cfg, changed_labels)
        if edited is not None:
            edited.extend(changed_labels)
    return removed
