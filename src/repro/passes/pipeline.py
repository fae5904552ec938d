"""Pass pipeline: compose cleanup passes and PRE into one optimiser.

``standard_pipeline`` is the order a real compiler would use around a
PRE pass: normalise first (constant folding exposes equal expressions,
LCSE canonicalises blocks), run Lazy Code Motion, then clean up the
copies and structure it leaves behind — iterating the cleanup trio to a
fixed point because each enables the others (copy propagation exposes
dead stores, DCE exposes pass-through blocks, ...).

The cleanup fixpoint is driven by **dirty-region scheduling** (the
default; ``scheduling="full"`` keeps the classic whole-CFG sweeps as a
reference and benchmark baseline).  Each pass keeps a dirty set of
block labels for each forward pass (copy propagation, constant
folding); a pass only runs when its set is non-empty, consumes the set
as its rewrite scope, and every edit re-dirties the *forward* closure
(edit + descendants), the blocks whose facts that edit can change.
The dataflow fixpoints themselves are still solved globally each call,
so a scoped run makes exactly the rewrites a whole-CFG run would — the
scope only skips blocks whose facts and content are provably unchanged
— and the final IR is bit-identical (a hypothesis differential test
pins this).  DCE is one whole-graph faint-variable solve, pending
whenever another pass edited anything since its last run; it is
idempotent, so its own edits never make it pending again.
Structural simplification stays whole-CFG (it is driven by a
reachability walk, not per-block facts) and runs only when something
changed since its last run; its edits reset every dirty set.

Every pass runs under a :func:`repro.obs.trace.span` (``pipeline.run``
with one ``pass.<name>`` child per rewrite pass and one
``pipeline.round`` span per cleanup iteration), and every in-place
mutation is announced — block-granular edits through
:func:`repro.obs.manager.notify_cfg_edited`, structural changes
through :func:`repro.obs.manager.notify_cfg_mutated` (with the touched
labels, so fingerprint state is patched, not dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.localcse import local_cse
from repro.core.pipeline import OptimizeConfig, optimize
from repro.ir.cfg import CFG
from repro.ir.validate import validate_cfg
from repro.obs.manager import (
    AnalysisManager,
    notify_cfg_derived,
    notify_cfg_edited,
    notify_cfg_mutated,
)
from repro.obs.trace import span
from repro.passes.canonical import canonicalize
from repro.passes.constfold import fold_constants
from repro.passes.copyprop import copy_propagate
from repro.passes.dce import dead_code_elimination
from repro.passes.simplify import simplify_cfg


@dataclass
class PassResult:
    """Outcome of a pipeline run."""

    cfg: CFG
    rewrites: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, count: int) -> None:
        if count:
            self.rewrites[name] = self.rewrites.get(name, 0) + count

    @property
    def total_rewrites(self) -> int:
        return sum(self.rewrites.values())

    def describe(self) -> str:
        if not self.rewrites:
            return "pipeline: no rewrites"
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.rewrites.items()))
        return f"pipeline: {parts}"


def _run_pass(result: PassResult, name: str, fn, cfg: CFG) -> int:
    """Run one whole-CFG rewrite pass under a span (legacy scheduling).

    Invalidation is coarse — any rewrite drops/dirties the whole
    fingerprint — which is exactly the behaviour the ``scheduling="full"``
    baseline arm of the rewrite benchmark wants to measure against.
    """
    with span(f"pass.{name}") as sp:
        count = fn(cfg)
        sp.set(rewrites=count)
    if count:
        notify_cfg_mutated(cfg)
    result.bump(name, count)
    return count


def _run_pass_edited(
    result: PassResult, name: str, fn, cfg: CFG, edits: List[str]
) -> int:
    """Run one block-local rewrite pass, announcing edits per label."""
    edited: List[str] = []
    with span(f"pass.{name}") as sp:
        count = fn(cfg, edited=edited)
        sp.set(rewrites=count)
    if edited:
        notify_cfg_edited(cfg, edited)
        edits.extend(edited)
    result.bump(name, count)
    return count


def _cleanup_full(
    cfg: CFG,
    result: PassResult,
    max_rounds: int,
    manager: Optional[AnalysisManager],
) -> None:
    """Legacy fixpoint: every pass sweeps the whole CFG every round."""
    for _ in range(max_rounds):
        round_total = 0
        round_total += _run_pass(result, "copyprop", copy_propagate, cfg)
        round_total += _run_pass(result, "constfold", fold_constants, cfg)
        round_total += _run_pass(result, "dce", dead_code_elimination, cfg)
        with span("pass.simplify") as sp:
            stats = simplify_cfg(cfg)
            sp.set(rewrites=stats.total)
        if stats.total:
            notify_cfg_mutated(cfg)
        result.bump("simplify", stats.total)
        round_total += stats.total
        if round_total == 0:
            return


def _cleanup_dirty(
    cfg: CFG,
    result: PassResult,
    max_rounds: int,
    manager: Optional[AnalysisManager],
) -> None:
    """Dirty-region fixpoint: each pass revisits only suspect blocks.

    Every dirty set starts full (the PRE phase touched an unknown
    region), so round one matches the legacy sweep; from then on a
    forward pass runs only over the descendants of actual edits, and
    DCE runs only when another pass edited something since its last
    run.  Structural simplification runs whenever anything changed
    since its last run; its edits reset every dirty set because block
    identity itself moved.
    """
    labels = set(cfg.labels)
    dirty: Dict[str, Set[str]] = {
        "copyprop": set(labels),
        "constfold": set(labels),
    }
    dce_pending = True
    simplify_pending = True

    def spread(edited: List[str]) -> None:
        forward = cfg.reachable_from(edited)
        dirty["copyprop"] |= forward
        dirty["constfold"] |= forward

    def scoped(name: str, fn) -> int:
        nonlocal dce_pending
        scope = dirty[name]
        if not scope:
            return 0
        dirty[name] = set()
        edited: List[str] = []
        with span(f"pass.{name}") as sp:
            count = fn(scope, edited)
            sp.set(rewrites=count, scope=len(scope))
        if edited:
            notify_cfg_edited(cfg, edited)
            spread(edited)
            dce_pending = True
        result.bump(name, count)
        return count

    def dce() -> int:
        nonlocal dce_pending
        if not dce_pending:
            return 0
        dce_pending = False
        edited: List[str] = []
        with span("pass.dce") as sp:
            count = dead_code_elimination(cfg, edited=edited)
            sp.set(rewrites=count, scope=len(cfg.labels))
        if edited:
            spread(edited)
        result.bump("dce", count)
        return count

    for round_no in range(max_rounds):
        with span("pipeline.round", round=round_no) as round_sp:
            trio_total = scoped(
                "copyprop",
                lambda scope, edited: copy_propagate(
                    cfg, blocks=scope, edited=edited, manager=manager
                ),
            )
            trio_total += scoped(
                "constfold",
                lambda scope, edited: fold_constants(
                    cfg, blocks=scope, edited=edited
                ),
            )
            # DCE announces its own edits.
            trio_total += dce()
            round_total = trio_total
            if simplify_pending or trio_total:
                with span("pass.simplify") as sp:
                    stats = simplify_cfg(cfg)
                    sp.set(rewrites=stats.total)
                if stats.total:
                    notify_cfg_mutated(cfg, labels=sorted(stats.touched))
                    current = set(cfg.labels)
                    for name in dirty:
                        dirty[name] = set(current)
                    dce_pending = True
                result.bump("simplify", stats.total)
                round_total += stats.total
                simplify_pending = stats.total > 0
            round_sp.set(rewrites=round_total)
            if round_total == 0 and not simplify_pending:
                return


def _cleanup_to_fixpoint(
    cfg: CFG,
    result: PassResult,
    max_rounds: int = 20,
    manager: Optional[AnalysisManager] = None,
    scheduling: str = "dirty",
) -> None:
    if scheduling == "full":
        _cleanup_full(cfg, result, max_rounds, manager)
    elif scheduling == "dirty":
        _cleanup_dirty(cfg, result, max_rounds, manager)
    else:
        raise ValueError(f"unknown scheduling {scheduling!r}")


def run_pipeline(
    cfg: CFG,
    pre_strategy: Optional[str] = "lcm",
    validate: bool = True,
    manager: Optional[AnalysisManager] = None,
    scheduling: str = "dirty",
) -> PassResult:
    """Run the standard pipeline on a copy of *cfg*.

    Args:
        cfg: input program (never mutated).
        pre_strategy: which PRE pass to run in the middle, or None to
            run the cleanup passes only.
        validate: validate the input and the final result.
        manager: optional :class:`repro.obs.manager.AnalysisManager`
            memoizing dataflow solutions across the PRE pass (and
            across repeated pipeline runs on identical programs).
        scheduling: ``"dirty"`` (default) drives the cleanup fixpoint
            from per-pass dirty-block sets; ``"full"`` sweeps the whole
            CFG every round (legacy behaviour, kept as the reference
            for the differential tests and the benchmark baseline).
            Both produce bit-identical output.
    """
    if validate:
        with span("pass.validate", stage="input"):
            validate_cfg(cfg)
    with span("pipeline.run", pre=pre_strategy or "none") as sp:
        work = cfg.copy()
        result = PassResult(cfg=work)
        pre_edits: List[str] = []
        _run_pass_edited(result, "canonicalize", canonicalize, work, pre_edits)
        _run_pass_edited(result, "constfold", fold_constants, work, pre_edits)
        # The copy's blocks hash identically to the input's except where
        # the two passes above rewrote, so seed its fingerprint state
        # from the input's instead of rehashing the whole graph.
        notify_cfg_derived(work, cfg, pre_edits)
        with span("pass.lcse") as lcse_sp:
            lcse_edits: List[str] = []
            cse_work, lcse_replaced = local_cse(work, edited=lcse_edits)
            lcse_sp.set(rewrites=lcse_replaced)
        notify_cfg_derived(cse_work, work, lcse_edits)
        work = cse_work
        result.cfg = work
        result.bump("lcse", lcse_replaced)

        if pre_strategy is not None:
            pre = optimize(
                work,
                pre_strategy,
                config=OptimizeConfig(run_local_cse=False, validate=False),
                manager=manager,
            )
            work = pre.cfg
            result.cfg = work
            result.bump(
                f"pre({pre_strategy})",
                sum(
                    p.insertion_count + len(p.delete_blocks)
                    for p in pre.placements
                ),
            )

        _cleanup_to_fixpoint(
            work, result, manager=manager, scheduling=scheduling
        )
        sp.set(total_rewrites=result.total_rewrites)
    if validate:
        with span("pass.validate", stage="output"):
            validate_cfg(work)
    return result


def standard_pipeline(
    cfg: CFG, manager: Optional[AnalysisManager] = None
) -> PassResult:
    """The default full pipeline: normalise, LCM, clean up."""
    return run_pipeline(cfg, "lcm", manager=manager)
