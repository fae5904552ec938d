"""Edge-based Lazy Code Motion on basic blocks.

This is the practical formulation of the paper's algorithm on ordinary
basic blocks, with insertions on *edges* (the shape later adopted by
Drechsler & Stadel's variant and by GCC's ``lcm.c``).  It composes four
unidirectional bit-vector analyses:

1. **anticipability** (down-safety) — backward, all paths;
2. **availability** (up-safety) — forward, all paths;
3. **earliestness** — a per-edge predicate computed pointwise from 1+2::

       EARLIEST(m,n) = ANTIN(n) ∩ ¬AVOUT(m) ∩ (¬TRANSP(m) ∪ ¬ANTOUT(m))

   (for edges leaving the entry the last factor is dropped);
4. **the LATER system** — forward, all paths, over edges::

       LATERIN(n)  = ∏_{(m,n)} LATER(m,n)        (∅ at the entry)
       LATER(m,n)  = EARLIEST(m,n) ∪ (LATERIN(m) ∩ ¬ANTLOC(m))

from which the transformation is read off pointwise::

       INSERT(m,n) = LATER(m,n) ∩ ¬LATERIN(n)
       DELETE(n)   = ANTLOC(n) ∩ ¬LATERIN(n)     (n ≠ entry)

Busy Code Motion (the computationally optimal but lifetime-greedy
variant) short-circuits the LATER system and inserts at the EARLIEST
edges directly, deleting every upwards-exposed occurrence.

The LATER system ends the delay at blocks with upwards-exposed
occurrences (the ``¬ANTLOC`` factor), which is what makes the *isolated*
case come out right with no separate isolation analysis: when the delay
reaches the use itself (``LATERIN`` holds at the use block), nothing is
inserted and nothing is deleted — the original computation stays put.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.anticipability import compute_anticipability
from repro.analysis.availability import compute_availability
from repro.analysis.local import LocalProperties, compute_local_properties
from repro.analysis.universe import ExprUniverse
from repro.core.placement import Placement
from repro.dataflow.bitvec import BitVector, counting_active
from repro.dataflow.dense import compile_plan
from repro.dataflow.order import reverse_postorder
from repro.dataflow.stats import SolverStats
from repro.ir.cfg import CFG, Edge
from repro.obs import trace
from repro.obs.trace import span

#: The analysis strategies accepted by :func:`analyze_lcm` (and, with
#: identical semantics, :func:`repro.core.krs.analyze_krs`): ``"auto"``
#: runs the fused plan (:mod:`repro.dataflow.fused`) unless an operation
#: counter is installed, ``"fused"``/``"staged"`` force a path —
#: although even an explicit ``"fused"`` steps aside inside a
#: :func:`~repro.dataflow.bitvec.counting` context, mirroring the dense
#: solver backend, so measured op tallies never change.
LCM_STRATEGIES = ("auto", "fused", "staged")


def _use_fused(strategy: str) -> bool:
    if strategy not in LCM_STRATEGIES:
        names = ", ".join(LCM_STRATEGIES)
        raise ValueError(
            f"unknown analysis strategy {strategy!r}; choose one of: {names}"
        )
    if strategy == "staged":
        return False
    if counting_active():
        # The fused cascade computes pointwise predicate algebra on raw
        # ints the operation counter cannot see; counted runs take the
        # staged reference path so C1 tallies stay bit-identical.
        trace.count("fused.fallback")
        return False
    return True


@dataclass
class LCMAnalysis:
    """All intermediate and final vectors of the edge-based algorithm."""

    cfg: CFG
    local: LocalProperties
    antin: Dict[str, BitVector]
    antout: Dict[str, BitVector]
    avin: Dict[str, BitVector]
    avout: Dict[str, BitVector]
    earliest: Dict[Edge, BitVector]
    laterin: Dict[str, BitVector]
    later: Dict[Edge, BitVector]
    insert: Dict[Edge, BitVector]
    delete: Dict[str, BitVector]
    stats: SolverStats

    @property
    def universe(self) -> ExprUniverse:
        return self.local.universe


def _compute_earliest(
    cfg: CFG,
    local: LocalProperties,
    antin: Dict[str, BitVector],
    antout: Dict[str, BitVector],
    avout: Dict[str, BitVector],
) -> Dict[Edge, BitVector]:
    """Pointwise earliestness per edge (no fixpoint needed)."""
    earliest: Dict[Edge, BitVector] = {}
    for m, n in cfg.edges():
        base = antin[n] - avout[m]
        if m == cfg.entry:
            earliest[(m, n)] = base
        else:
            earliest[(m, n)] = base & (~local.transp[m] | ~antout[m])
    return earliest


def _solve_later(
    cfg: CFG,
    local: LocalProperties,
    earliest: Dict[Edge, BitVector],
    stats: SolverStats,
) -> Dict[str, BitVector]:
    """Iterate the LATER/LATERIN system to its greatest fixpoint.

    Facts live on edges, so this is a small bespoke round-robin loop
    rather than an instance of the block solver; it converges for the
    same monotonicity reasons.  Returns LATERIN (LATER is recomputed
    pointwise from it by the caller).
    """
    width = local.universe.width
    full = BitVector.full(width)
    empty = BitVector.empty(width)

    laterin: Dict[str, BitVector] = {label: full for label in cfg.labels}
    laterin[cfg.entry] = empty

    order = reverse_postorder(cfg)
    changed = True
    while changed:
        changed = False
        stats.sweeps += 1
        for n in order:
            if n == cfg.entry:
                continue
            stats.node_visits += 1
            acc: Optional[BitVector] = None
            for m in cfg.preds(n):
                later_mn = earliest[(m, n)] | (laterin[m] - local.antloc[m])
                acc = later_mn if acc is None else acc & later_mn
            new = acc if acc is not None else empty
            if new != laterin[n]:
                laterin[n] = new
                changed = True
    return laterin


def analyze_lcm(
    cfg: CFG,
    universe: Optional[ExprUniverse] = None,
    manager=None,
    strategy: str = "auto",
) -> LCMAnalysis:
    """Run the complete edge-based LCM analysis pipeline on *cfg*.

    With an :class:`~repro.obs.manager.AnalysisManager`, the whole
    analysis bundle — and each underlying dataflow solution — is
    memoized by graph content, so re-analysing an unchanged graph does
    no solver work.  (The bundle memo only applies for the default
    universe; an explicit *universe* bypasses it.)

    *strategy* selects the execution plan, not the result: ``"auto"``
    (the default) runs the fused single-module cascade
    (:func:`repro.dataflow.fused.run_fused_lcm`) unless an operation
    counter is installed; ``"staged"`` forces the four-solve reference
    pipeline; ``"fused"`` forces the fused plan (still stepping aside
    under :func:`~repro.dataflow.bitvec.counting`).  All strategies
    produce bit-identical bundles — facts *and* sweep statistics —
    which is why they share one memo key.
    """
    if manager is not None and universe is None:
        return manager.cached(
            cfg, "lcm.analysis", lambda: _analyze_lcm(cfg, None, manager, strategy)
        )
    return _analyze_lcm(cfg, universe, manager, strategy)


def _analyze_lcm(
    cfg: CFG,
    universe: Optional[ExprUniverse],
    manager,
    strategy: str = "staged",
) -> LCMAnalysis:
    if _use_fused(strategy):
        return _analyze_lcm_fused(cfg, universe, manager)
    with span("lcm.analyze", blocks=len(cfg)):
        with span("lcm.local"):
            local = compute_local_properties(cfg, universe)
        return run_staged_lcm(cfg, local, manager=manager)


def run_staged_lcm(cfg: CFG, local: LocalProperties, manager=None, plan=None):
    """The staged (four-solve) quartet given precomputed *local* props.

    The reference execution plan the fused module is pinned against:
    two dense solves through :func:`~repro.dataflow.solver.solve`, then
    EARLIEST pointwise and the LATER fixpoint on ``BitVector`` maps.
    Exposed separately from :func:`analyze_lcm` so the benchmark can
    time the quartet itself — both arms warm, a precompiled dense
    *plan* here against a precompiled
    :class:`~repro.dataflow.fused.LCMPlan` in
    :func:`~repro.dataflow.fused.run_fused_lcm`.
    """
    with span("lcm.staged", blocks=len(cfg)):
        # One dense solve plan serves both analyses (and, with a
        # manager, every later solve on a graph with this content).
        if manager is None and plan is None:
            plan = compile_plan(cfg)
        ant = compute_anticipability(cfg, local, manager=manager, plan=plan)
        av = compute_availability(cfg, local, manager=manager, plan=plan)
        stats = ant.stats.merged(av.stats)

        with span("lcm.earliest"):
            earliest = _compute_earliest(cfg, local, ant.antin, ant.antout, av.avout)
        with span("lcm.later") as later_span:
            sweeps_before, visits_before = stats.sweeps, stats.node_visits
            laterin = _solve_later(cfg, local, earliest, stats)
            later_span.set(
                sweeps=stats.sweeps - sweeps_before,
                node_visits=stats.node_visits - visits_before,
            )

        later: Dict[Edge, BitVector] = {}
        insert: Dict[Edge, BitVector] = {}
        for m, n in cfg.edges():
            later[(m, n)] = earliest[(m, n)] | (laterin[m] - local.antloc[m])
            insert[(m, n)] = later[(m, n)] - laterin[n]

        delete: Dict[str, BitVector] = {}
        for label in cfg.labels:
            if label == cfg.entry:
                delete[label] = local.universe.empty()
            else:
                delete[label] = local.antloc[label] - laterin[label]

    return LCMAnalysis(
        cfg=cfg,
        local=local,
        antin=ant.antin,
        antout=ant.antout,
        avin=av.avin,
        avout=av.avout,
        earliest=earliest,
        laterin=laterin,
        later=later,
        insert=insert,
        delete=delete,
        stats=stats,
    )


def _analyze_lcm_fused(
    cfg: CFG, universe: Optional[ExprUniverse], manager
) -> LCMAnalysis:
    """The fused execution plan: one module, one set of int arrays.

    Local properties are computed exactly as in the staged path; the
    four global systems then run back-to-back inside
    :func:`repro.dataflow.fused.run_fused_lcm` on one compiled
    :class:`~repro.dataflow.fused.LCMPlan` — memoized by content
    fingerprint through :meth:`AnalysisManager.lcm_plan
    <repro.obs.manager.AnalysisManager.lcm_plan>` when a manager is
    attached and the universe is the graph's own default.
    """
    from repro.dataflow.fused import compile_lcm_plan, run_fused_lcm

    with span("lcm.analyze", blocks=len(cfg)):
        with span("lcm.local"):
            local = compute_local_properties(cfg, universe)
        if manager is not None and universe is None:
            plan = manager.lcm_plan(cfg, local)
        else:
            plan = compile_lcm_plan(cfg, local)
        trace.count("fused.run")
        with span(
            "lcm.fused", blocks=len(cfg), width=local.universe.width
        ) as fused_span:
            analysis = run_fused_lcm(cfg, plan, local)
            fused_span.set(
                sweeps=analysis.stats.sweeps,
                node_visits=analysis.stats.node_visits,
            )
        if manager is not None:
            manager.stats.backends["fused"] = (
                manager.stats.backends.get("fused", 0) + 1
            )
    return analysis


def _placements_from(
    analysis: LCMAnalysis,
    insert: Dict[Edge, BitVector],
    delete: Dict[str, BitVector],
) -> List[Placement]:
    """Turn per-edge/per-block vectors into one Placement per expression.

    Transposes the vectors in one pass over their set bits, so the cost
    follows the number of insertions and deletions, not width × (edges +
    blocks).
    """
    universe = analysis.universe
    width = universe.width
    edges: List[List[Edge]] = [[] for _ in range(width)]
    blocks: List[List[str]] = [[] for _ in range(width)]
    for edge, vec in insert.items():
        for idx in vec.indices():
            edges[idx].append(edge)
    for label, vec in delete.items():
        for idx in vec.indices():
            blocks[idx].append(label)
    return [
        Placement(
            expr,
            universe.temp_name(expr),
            frozenset(edges[idx]),
            frozenset(),
            frozenset(blocks[idx]),
        )
        for idx, expr in universe.enumerate()
    ]


def lcm_placements(analysis: LCMAnalysis) -> List[Placement]:
    """Lazy Code Motion: insert at the latest possible safe edges."""
    return _placements_from(analysis, analysis.insert, analysis.delete)


def bcm_placements(analysis: LCMAnalysis) -> List[Placement]:
    """Busy Code Motion: insert at the earliest safe edges.

    Computationally optimal like LCM, but temporaries are live from the
    earliest point — the register-pressure problem LCM's delaying fixes.
    """
    delete = {
        label: (
            analysis.universe.empty()
            if label == analysis.cfg.entry
            else analysis.local.antloc[label]
        )
        for label in analysis.cfg.labels
    }
    return _placements_from(analysis, analysis.earliest, delete)
