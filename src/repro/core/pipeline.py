"""The one-call public API: ``optimize(cfg, pass_="lcm")``.

Optimisation passes live in a registry keyed by name; core algorithms,
baselines and extensions all register themselves with the
:func:`register_pass` decorator, so the dispatch table is open — a new
PRE variant anywhere in the codebase becomes available to the CLI, the
benchmarks and the reports by registering itself.

Registered passes:

===========  ==============================================================
``lcm``      edge-based Lazy Code Motion (the paper's algorithm; default)
``bcm``      edge-based Busy Code Motion (earliest placement)
``krs-lcm``  the original node-level LCM on a statement-granular graph
``krs-alcm`` node-level Almost-LCM (no isolation filtering)
``krs-bcm``  node-level BCM
``lcm-size`` code-size-governed LCM (extension)
``mr``       Morel–Renvoise bidirectional PRE (1979 baseline)
``gcse``     full-redundancy elimination only (global CSE)
``licm``     naive loop-invariant code motion (speculative baseline)
``none``     identity (no change)
===========  ==============================================================

All passes return a :class:`~repro.core.transform.TransformResult`
whose ``cfg`` is a *new* graph; the input is never mutated.

Behaviour is configured with :class:`OptimizeConfig`; repeated runs over
unchanged graphs are made cheap by passing an
:class:`~repro.obs.manager.AnalysisManager`, which memoizes every
dataflow solution by graph content.  Front-ends should not call this
module directly: :mod:`repro.api` is the facade that wraps it (and
source loading) in typed outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.krs import analyze_krs, krs_placements
from repro.core.lcm import analyze_lcm, bcm_placements, lcm_placements
from repro.core.localcse import local_cse
from repro.core.nodegraph import expand_to_nodes
from repro.core.transform import TransformResult, apply_placements
from repro.ir.cfg import CFG
from repro.ir.edgesplit import split_join_edges
from repro.ir.validate import validate_cfg
from repro.obs.manager import notify_cfg_derived
from repro.obs.trace import span


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs for :func:`optimize` that are not the pass itself.

    Attributes:
        run_local_cse: normalise blocks with local CSE first, as the
            paper assumes.
        validate: check the input's structural invariants first.
    """

    run_local_cse: bool = True
    validate: bool = True


@dataclass(frozen=True)
class OptimizeContext:
    """Everything a registered pass receives besides the graph."""

    config: OptimizeConfig
    manager: Optional[object] = None  # an AnalysisManager, when caching


#: A registered pass body: ``(cfg, ctx) -> TransformResult``.
PassFn = Callable[[CFG, OptimizeContext], TransformResult]


@dataclass(frozen=True)
class PREStrategy:
    """A named, registered PRE pass usable with :func:`optimize`.

    ``hidden`` passes resolve by exact name (:func:`get_pass`,
    :func:`optimize`) but are excluded from
    :func:`available_strategies` — the shape test fixtures use for
    deliberately broken passes (e.g. ``miscompile-dce`` in
    :mod:`repro.batch.testing`) that must never be offered by the CLI
    or swept by whole-registry property tests.
    """

    name: str
    description: str
    run: PassFn
    hidden: bool = False


_REGISTRY: Dict[str, PREStrategy] = {}


def register_pass(
    name: str, description: str = "", hidden: bool = False
) -> Callable[[PassFn], PassFn]:
    """Class-of-one decorator: register *fn* as the pass named *name*.

    ::

        @register_pass("my-pre", "my own placement strategy")
        def _my_pre(cfg, ctx):
            return apply_placements(cfg, my_placements(cfg))

    The function receives the (already LCSE-normalised, when configured)
    graph and an :class:`OptimizeContext`; it must return a
    :class:`TransformResult` over a *new* graph.  Registering a taken
    name raises ``ValueError``.
    """

    def decorate(fn: PassFn) -> PassFn:
        if name in _REGISTRY:
            raise ValueError(f"pass {name!r} is already registered")
        summary = description or (fn.__doc__ or "").strip().splitlines()[0]
        _REGISTRY[name] = PREStrategy(name, summary, fn, hidden=hidden)
        return fn

    return decorate


def _ensure_registered() -> Dict[str, PREStrategy]:
    """Import every pass-providing module, then return the registry.

    Imports are deferred so :mod:`repro.core` does not hard-depend on
    the baselines/extensions packages at import time (they import
    repro.core themselves).
    """
    import repro.baselines.gcse  # noqa: F401  (registers "gcse")
    import repro.baselines.licm  # noqa: F401  (registers "licm")
    import repro.baselines.morel_renvoise  # noqa: F401  (registers "mr")
    import repro.extensions.codesize  # noqa: F401  (registers "lcm-size")

    return _REGISTRY


# -- the core passes --------------------------------------------------------

def _edge_based(cfg: CFG, variant: str, ctx: OptimizeContext) -> TransformResult:
    manager = ctx.manager if ctx is not None else None
    analysis = analyze_lcm(cfg, manager=manager)
    if variant == "lcm":
        placements = lcm_placements(analysis)
    elif variant == "bcm":
        placements = bcm_placements(analysis)
    else:
        raise ValueError(f"unknown edge-based variant {variant!r}")
    result = apply_placements(cfg, placements, manager=ctx.manager)
    return result


def _node_based(cfg: CFG, variant: str, ctx: OptimizeContext) -> TransformResult:
    expanded = expand_to_nodes(cfg).cfg
    # Edge-split form (every edge into a join gets a landing node) is
    # required for node insertions to be as expressive as edge
    # insertions; critical-edge splitting alone loses optimality when a
    # single-successor block ending in a kill feeds a join.
    split_join_edges(expanded)
    analysis = analyze_krs(
        expanded, manager=ctx.manager if ctx is not None else None
    )
    placements = krs_placements(analysis, variant)
    # The node-level formulation accounts for isolation itself (for the
    # lcm variant); the transform's isolation solve still decides the
    # generator copies, which for the BCM/ALCM "replace everything"
    # plans keeps only copies whose temp is live.
    result = apply_placements(expanded, placements, manager=ctx.manager)
    return TransformResult(
        original=cfg,
        cfg=result.cfg,
        placements=result.placements,
        temps=result.temps,
        copies_added=result.copies_added,
        copies_collapsed=result.copies_collapsed,
        insertions_dropped=result.insertions_dropped,
    )


@register_pass("lcm", "Lazy Code Motion, edge-based (Knoop/Ruething/Steffen 1992)")
def _lcm_pass(cfg: CFG, ctx: OptimizeContext) -> TransformResult:
    return _edge_based(cfg, "lcm", ctx)


@register_pass("bcm", "Busy Code Motion, edge-based (earliest placement)")
def _bcm_pass(cfg: CFG, ctx: OptimizeContext) -> TransformResult:
    return _edge_based(cfg, "bcm", ctx)


@register_pass("krs-lcm", "Lazy Code Motion, original node-level formulation")
def _krs_lcm_pass(cfg: CFG, ctx: OptimizeContext) -> TransformResult:
    return _node_based(cfg, "lcm", ctx)


@register_pass("krs-alcm", "Almost-lazy Code Motion (latest placement, no isolation)")
def _krs_alcm_pass(cfg: CFG, ctx: OptimizeContext) -> TransformResult:
    return _node_based(cfg, "alcm", ctx)


@register_pass("krs-bcm", "Busy Code Motion, original node-level formulation")
def _krs_bcm_pass(cfg: CFG, ctx: OptimizeContext) -> TransformResult:
    return _node_based(cfg, "bcm", ctx)


@register_pass("none", "Identity (no optimisation)")
def _identity_pass(cfg: CFG, ctx: OptimizeContext) -> TransformResult:
    return TransformResult(original=cfg, cfg=cfg.copy(), placements=[], temps=set())


# -- lookup -----------------------------------------------------------------

def available_strategies() -> List[PREStrategy]:
    """All registered non-hidden passes, name-sorted."""
    table = _ensure_registered()
    return [
        table[name] for name in sorted(table) if not table[name].hidden
    ]


def get_pass(name: str) -> PREStrategy:
    """The registered pass named *name* (ValueError lists options)."""
    table = _ensure_registered()
    if name not in table:
        names = ", ".join(sorted(table))
        raise ValueError(f"unknown strategy {name!r}; choose one of: {names}")
    return table[name]


# -- the entry point --------------------------------------------------------


def optimize(
    cfg: CFG,
    pass_: str = "lcm",
    *,
    config: Optional[OptimizeConfig] = None,
    manager=None,
) -> TransformResult:
    """Optimise *cfg* with the registered pass named *pass_*.

    Args:
        cfg: the input program (never mutated).
        pass_: one of :func:`available_strategies`.
        config: behaviour knobs (:class:`OptimizeConfig`; defaults
            apply when None).
        manager: an :class:`~repro.obs.manager.AnalysisManager` to
            memoize dataflow solutions across calls.

    Returns the transformation result; ``result.cfg`` is the optimised
    program.

    The pre-registry keyword spelling (``strategy=...``,
    ``run_local_cse=...``, ``validate=...``) was removed after a
    deprecation cycle; those keywords now raise ``TypeError``.
    """
    if config is None:
        config = OptimizeConfig()

    if config.validate:
        with span("pass.validate"):
            validate_cfg(cfg)
    registered = get_pass(pass_)
    ctx = OptimizeContext(config=config, manager=manager)
    with span("optimize", pass_=pass_) as opt_span:
        source = cfg
        if config.run_local_cse:
            with span("pass.lcse"):
                lcse_edits: List[str] = []
                source, _ = local_cse(cfg, edited=lcse_edits)
            # LCSE returns a copy differing only in the edited blocks;
            # seed its fingerprint state from the input's.
            notify_cfg_derived(source, cfg, lcse_edits)
        result = registered.run(source, ctx)
        opt_span.set(
            insertions=sum(p.insertion_count for p in result.placements),
            deletions=sum(len(p.delete_blocks) for p in result.placements),
        )
    # Report against the caller's graph, not the LCSE'd intermediate.
    result.original = cfg
    return result
