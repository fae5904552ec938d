"""Applying placements: the code motion transformation itself.

Given a CFG and one :class:`~repro.core.placement.Placement` per
expression, :func:`apply_placements` produces the transformed program:

1. **Replace** the upwards-exposed occurrence ``x = e`` in every
   ``delete_blocks`` member with ``x = t``.
2. **Initialise** ``t``: insert ``t = e`` at every ``insert_entries``
   block entry and on every ``insert_edges`` edge (realised by edge
   splitting; simultaneous insertions of several expressions on one edge
   share the split block).
3. **Copy at generators**: every *remaining* occurrence ``x = e`` is
   tentatively rewritten to ``t = e; x = t`` so its value can flow to
   replaced occurrences downstream.
4. **Suppress isolated copies**: a tentative copy whose temporary is
   dead after the pair is collapsed back to the original ``x = e``.
   This reproduces the paper's isolation treatment *semantically*; the
   analyses' own isolation handling is cross-checked against it in the
   tests.

The result is always semantically equivalent to the input for *any*
placement that is value-correct; the interpreter-based checkers in
:mod:`repro.core.optimality` verify this property for every algorithm in
the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.liveness import LivenessResult
from repro.core.placement import Placement, PlacementError, upward_exposed_index
from repro.dataflow.incremental import IncrementalLiveness
from repro.ir.cfg import CFG, Edge
from repro.ir.expr import Expr, Var
from repro.ir.instr import Assign
from repro.obs.manager import (
    AnalysisManager,
    notify_cfg_derived,
    notify_cfg_edited,
)


def _liveness_engine(
    cfg: CFG, manager: Optional[AnalysisManager], live_at_exit=()
) -> IncrementalLiveness:
    """The incremental liveness engine for *cfg*.

    With a manager, the engine is the manager-held one — its global
    solve is memoized by content fingerprint (a second transformation
    run producing the same intermediate programs hits the cache) and it
    is kept current through the notification hooks.  Without one, a
    private engine is returned; callers must pair every mutation with
    :func:`_mark_edited` / :func:`_mark_mutated` so both kinds stay in
    sync.
    """
    if manager is None:
        return IncrementalLiveness(cfg, live_at_exit=live_at_exit)
    return manager.liveness(cfg, live_at_exit=live_at_exit)


def _mark_edited(
    cfg: CFG,
    engine: IncrementalLiveness,
    labels,
    manager: Optional[AnalysisManager],
) -> None:
    """Signal instruction-level edits to *labels* after mutating *cfg*.

    The module hook reaches every live manager (including the one
    holding *engine*, when there is one); a private engine gets the
    marks directly.
    """
    notify_cfg_edited(cfg, labels)
    if manager is None:
        engine.blocks_edited(labels)


@dataclass
class TransformResult:
    """The outcome of applying a set of placements."""

    original: CFG
    cfg: CFG
    placements: List[Placement]
    temps: Set[str]
    copies_added: List[Tuple[str, str]] = field(default_factory=list)
    copies_collapsed: List[Tuple[str, str]] = field(default_factory=list)
    insertions_dropped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def copy_blocks(self) -> Set[str]:
        """Blocks where a generating occurrence kept its copy (COPY set)."""
        collapsed = set(self.copies_collapsed)
        return {label for label, _ in self.copies_added if (label, _) not in collapsed}

    def describe(self) -> str:
        lines = [p.describe() for p in self.placements if not p.is_identity]
        if not lines:
            return "no transformation applied"
        return "\n".join(lines)


def _is_live_after(
    cfg: CFG, liveness: LivenessResult, label: str, index: int, var: str
) -> bool:
    """Is *var* live immediately after instruction *index* of *label*?"""
    block = cfg.block(label)
    for instr in block.instrs[index + 1 :]:
        if var in instr.uses():
            return True
        if instr.target == var:
            return False
    if block.terminator is not None and var in block.terminator.uses():
        return True
    return liveness.is_live_out(label, var)


def apply_placements(
    cfg: CFG,
    placements: Sequence[Placement],
    add_copies: bool = True,
    collapse_isolated_copies: bool = True,
    drop_dead_insertions: bool = True,
    manager: Optional[AnalysisManager] = None,
) -> TransformResult:
    """Apply *placements* to a copy of *cfg* and return the result.

    Args:
        cfg: the program to transform (left untouched).
        placements: one plan per expression; temps must be distinct.
        add_copies: rewrite remaining occurrences to ``t = e; x = t`` so
            their value reaches replaced occurrences (step 3 above).
            Disable only for algorithms that provably need no
            generators, or to study the resulting miscompiles.
        collapse_isolated_copies: undo copies whose temp is dead
            (step 4).  Disabling yields the ALCM-style "copy
            everywhere" program, used by the isolation ablation.
        drop_dead_insertions: remove inserted ``t = e`` whose temp is
            dead — a defensive cleanup for baselines that may insert
            uselessly; LCM/BCM never trigger it.
        manager: optional :class:`repro.obs.manager.AnalysisManager`
            memoizing the liveness solves of the cleanup steps.
    """
    temps = [p.temp for p in placements]
    if len(set(temps)) != len(temps):
        raise PlacementError("placements must use pairwise distinct temps")
    # Uniquify temp names against the program (re-optimising an already
    # transformed program would otherwise reuse last round's temps).
    existing = set(cfg.variables())
    taken = existing | set(temps)
    renamed: List[Placement] = []
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
                placement.expr,
                temp,
                placement.insert_edges,
                placement.insert_entries,
                placement.delete_blocks,
                placement.insert_exits,
            )
        renamed.append(placement)
    placements = renamed

    work = cfg.copy()
    result = TransformResult(
        original=cfg,
        cfg=work,
        placements=list(placements),
        temps={p.temp for p in placements},
    )

    # Labels whose content steps 1-3 change, relative to the input; the
    # copy's fingerprint state is derived from the input's through them.
    step_edits: Set[str] = set()

    # Step 1: replace deleted occurrences.
    for placement in placements:
        for label in sorted(placement.delete_blocks):
            index = upward_exposed_index(work, label, placement.expr)
            block = work.block(label)
            old = block.instrs[index]
            block.instrs[index] = Assign(old.target, Var(placement.temp))
            step_edits.add(label)

    # Step 3 (before insertions so indices refer to original occurrences):
    # tentative copies at every remaining occurrence.  The rewrite keeps
    # every occurrence of the planned expression in place (``x = e``
    # becomes ``t = e; x = t``) and never plants one in a new block, so
    # a single occurrence scan up front serves every placement —
    # including later placements over the same expression.
    if add_copies:
        planned = {p.expr for p in placements}
        occ_labels: Dict[Expr, List[str]] = {}
        for block in work:
            seen_here: Set[Expr] = set()
            for instr in block.instrs:
                expr = instr.expr
                if expr in planned and expr not in seen_here:
                    seen_here.add(expr)
                    occ_labels.setdefault(expr, []).append(block.label)
        for placement in placements:
            for label in occ_labels.get(placement.expr, ()):
                block = work.block(label)
                rewritten: List[Assign] = []
                changed = False
                for instr in block.instrs:
                    if instr.expr == placement.expr and instr.target != placement.temp:
                        rewritten.append(Assign(placement.temp, placement.expr))
                        rewritten.append(Assign(instr.target, Var(placement.temp)))
                        result.copies_added.append((block.label, placement.temp))
                        changed = True
                    else:
                        rewritten.append(instr)
                if changed:
                    block.instrs[:] = rewritten
                    step_edits.add(label)

    # Step 2a: entry insertions (prepended, so they precede every use)
    # and exit insertions (appended, after every occurrence).
    for placement in placements:
        for label in sorted(placement.insert_entries):
            work.block(label).instrs.insert(
                0, Assign(placement.temp, placement.expr)
            )
            step_edits.add(label)
        for label in sorted(placement.insert_exits):
            work.block(label).append(Assign(placement.temp, placement.expr))
            step_edits.add(label)

    # Step 2b: edge insertions; one split block per edge, shared by all
    # expressions inserting there.  The split retargets the source's
    # terminator, so both the new block and the source are edits.
    by_edge: Dict[Edge, List[Placement]] = {}
    for placement in placements:
        for edge in placement.insert_edges:
            by_edge.setdefault(edge, []).append(placement)
    split_labels: Set[str] = set()
    for edge in sorted(by_edge):
        src, dst = edge
        split = work.split_edge(src, dst, f"ins_{src}_{dst}")
        for placement in sorted(by_edge[edge], key=lambda p: p.temp):
            split.append(Assign(placement.temp, placement.expr))
        split_labels.add(split.label)
        step_edits.add(split.label)
        step_edits.add(src)

    # Seed the copy's fingerprint state from the input's: only the
    # blocks in step_edits hash differently, so the first fingerprint
    # of the result is an incremental patch, not a whole-CFG hash.
    notify_cfg_derived(work, cfg, sorted(step_edits))

    # Step 4: collapse isolated copies and drop dead insertions.  One
    # incremental engine serves both cleanups: a single full liveness
    # solve up front, then edit-sized column-wise patches after each edit
    # instead of the global re-solves this loop used to do.  Temps are
    # only ever defined at copy sites and insertion sites, so both
    # sweeps visit just those blocks.
    if (collapse_isolated_copies and result.copies_added) or drop_dead_insertions:
        engine = _liveness_engine(work, manager)
        if collapse_isolated_copies and result.copies_added:
            _collapse_dead_copies(work, result, engine, manager)
        if drop_dead_insertions:
            def_sites = split_labels | {
                label for label, _ in result.copies_added
            }
            for placement in placements:
                def_sites |= placement.insert_entries
                def_sites |= placement.insert_exits
            _drop_dead_insertions(work, result, engine, manager, def_sites)

    return result


def _collapse_dead_copies(
    cfg: CFG,
    result: TransformResult,
    engine: IncrementalLiveness,
    manager: Optional[AnalysisManager] = None,
) -> None:
    """Rewrite ``t = e; x = t`` back to ``x = e`` where *t* dies at once."""
    engine.solve()
    copy_sites = {label for label, _ in result.copies_added}
    for block in cfg:
        if block.label not in copy_sites:
            continue
        changed = False
        i = 0
        while i + 1 < len(block.instrs):
            first, second = block.instrs[i], block.instrs[i + 1]
            if (
                first.target in result.temps
                and second.expr == Var(first.target)
                and second.target != first.target
                and (block.label, first.target) in result.copies_added
                and not engine.is_live_after(block.label, i + 1, first.target)
            ):
                block.instrs[i : i + 2] = [Assign(second.target, first.expr)]
                result.copies_collapsed.append((block.label, first.target))
                changed = True
                # The facts stay exact.  The rewrite drops a def of t and
                # the one use of t that def covered, so the block's
                # upward-exposed uses are unchanged and its defs only
                # shrink: its transfer grows, in t's column alone.  Since
                # t is dead after the pair, t's live-in is unchanged too,
                # so no block's facts move (later pairs here may keep
                # using this block's exit fact), and the patch at the
                # block boundary is a single visit to this block.
            else:
                i += 1
        if changed:
            _mark_edited(cfg, engine, [block.label], manager)


def _drop_dead_insertions(
    cfg: CFG,
    result: TransformResult,
    engine: IncrementalLiveness,
    manager: Optional[AnalysisManager] = None,
    candidates: Optional[Set[str]] = None,
) -> None:
    """Remove inserted/copy definitions of temps that are never used.

    *candidates*, when given, is the set of labels that can contain a
    temp definition (insertion sites, split blocks, copy sites); other
    blocks define no temps and are skipped.  Removals never create temp
    definitions elsewhere, so the set stays valid across rounds.
    """
    engine.solve()
    changed = True
    while changed:
        changed = False
        edited: List[str] = []
        for block in cfg:
            if candidates is not None and block.label not in candidates:
                continue
            keep: List[Assign] = []
            for i, instr in enumerate(block.instrs):
                if instr.target in result.temps and not engine.is_live_after(
                    block.label, i, instr.target
                ):
                    result.insertions_dropped.append((block.label, instr.target))
                    changed = True
                else:
                    keep.append(instr)
            if len(keep) != len(block.instrs):
                block.instrs[:] = keep
                edited.append(block.label)
        if edited:
            # Facts stay frozen within the round (every block decides
            # against the same fixpoint — the old re-solve-per-round
            # semantics); the patch lands at the round boundary.
            _mark_edited(cfg, engine, edited, manager)


def eliminate_dead_code(
    cfg: CFG,
    candidates: Iterable[str],
    manager: Optional[AnalysisManager] = None,
) -> int:
    """Iteratively remove dead assignments to the *candidates* variables.

    Returns the number of instructions removed.  Only assignments whose
    target is in *candidates* are touched (all right-hand sides in this
    IR are pure, so removal is always sound for dead targets).  Solves
    liveness once (memoized through *manager* when given) and patches
    the fixpoint incrementally between rounds.
    """
    candidate_set = set(candidates)
    engine = _liveness_engine(cfg, manager)
    engine.solve()
    removed = 0
    changed = True
    while changed:
        changed = False
        edited: List[str] = []
        for block in cfg:
            keep: List[Assign] = []
            for i, instr in enumerate(block.instrs):
                if instr.target in candidate_set and not engine.is_live_after(
                    block.label, i, instr.target
                ):
                    removed += 1
                    changed = True
                else:
                    keep.append(instr)
            if len(keep) != len(block.instrs):
                block.instrs[:] = keep
                edited.append(block.label)
        if edited:
            _mark_edited(cfg, engine, edited, manager)
    return removed
