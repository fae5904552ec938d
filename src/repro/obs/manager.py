"""The analysis manager: memoized dataflow solutions with invalidation.

The paper's cost argument is that LCM's four unidirectional analyses
are cheap; this module makes them cheap *in practice* by never solving
the same problem on the same program twice.  An :class:`AnalysisManager`
memoizes :class:`~repro.dataflow.solver.Solution` objects (and whole
analysis bundles such as :class:`~repro.core.lcm.LCMAnalysis`) keyed by

    (CFG content fingerprint, computation key)

so repeated pipeline runs, strategy comparisons and report generation
over an unchanged graph hit the cache and return the *same* object —
bit-identical facts, zero solver work.

Because the fingerprint is content-based, caching is sound even across
distinct CFG objects with equal content.  The only subtlety is in-place
mutation: fingerprints are themselves cached per CFG *object* — as
incrementally maintained :class:`~repro.obs.fingerprint.FingerprintState`
holders of per-block digests — so code that mutates a graph in place
must call :func:`notify_cfg_edited` (instruction-level edits, naming
the touched blocks) or :func:`notify_cfg_mutated` (structural changes)
— the transformation engine (:mod:`repro.core.transform`) and the pass
pipeline (:mod:`repro.passes.pipeline`) do.  An edit marks just those
blocks dirty, so the next fingerprint lookup re-hashes the edited
region instead of re-hashing the whole graph; only an unattributed
structural mutation forces a from-scratch hash.  Code that *copies* a
graph and edits a known set of blocks can call
:func:`notify_cfg_derived` to seed the copy's state from its base, so
even the copy's first lookup is incremental.  Cached solutions are
never dropped by invalidation: they stay valid for any graph that
hashes to their fingerprint; invalidation only forces the fingerprint
itself to be refreshed.

A manager can additionally be given a
:class:`~repro.obs.store.SolutionStore`, which turns the cache into two
tiers: in-memory hit first, then disk, then solve-and-write.  The disk
tier is shared across processes and invocations (batch workers point at
one ``--cache-dir``); a disk hit is promoted into the memory tier, so
repeated lookups pay the deserialisation once.  Values the store has no
codec for stay memory-only — the disk tier is transparent, never
load-bearing.

Cache traffic is observable: hits, misses and invalidations bump the
``cache.hit`` / ``cache.miss`` / ``cache.invalidate`` counters on the
installed tracer (see :mod:`repro.obs.trace`), the disk tier bumps
``cache.disk.hit`` / ``cache.disk.miss`` / ``cache.disk.write``, and
both tiers are tallied separately in :attr:`AnalysisManager.stats` —
so ``repro cache stats``, batch reports and trace counters agree.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.obs import trace
from repro.obs.fingerprint import FingerprintState
from repro.ir.cfg import CFG

#: Every live manager, so module-level mutation hooks can reach them all.
_LIVE_MANAGERS: "weakref.WeakSet" = weakref.WeakSet()


def notify_cfg_mutated(cfg: CFG, labels=None) -> None:
    """Invalidate cached facts about *cfg* in every live manager.

    The hook mutating code must call after changing a graph's
    *structure* in place (blocks added/removed, edges retargeted).
    Cheap when no managers exist or none has seen the graph.

    With *labels* (the surviving blocks whose content changed), the
    cached fingerprint state is patched instead of dropped: those
    blocks are marked dirty, and the incremental refresh reconciles
    added/removed blocks on its own.  Without *labels* the fingerprint
    is dropped and recomputed from scratch.  Code making
    instruction-level edits to existing blocks should call
    :func:`notify_cfg_edited` instead.
    """
    for manager in list(_LIVE_MANAGERS):
        manager.invalidate(cfg, labels)


def notify_cfg_edited(cfg: CFG, labels) -> None:
    """Signal instruction-level edits to existing blocks of *cfg*.

    The edit-granular sibling of :func:`notify_cfg_mutated`: *labels*
    names the blocks whose content changed in place without altering
    the graph's structure — instruction inserts/deletes/replacements,
    or a branch-condition rewrite that preserves the successor targets.
    (Anything that adds/removes blocks or changes edges needs the
    coarse hook.)  Every live manager marks just those blocks dirty in
    its cached fingerprint state (an O(region) re-hash at the next
    lookup).
    """
    for manager in list(_LIVE_MANAGERS):
        manager.notify_edited(cfg, labels)


def notify_cfg_derived(new_cfg: CFG, base_cfg: CFG, labels) -> None:
    """Seed fingerprint state for a copy of *base_cfg* edited at *labels*.

    For code that copies a graph and then mutates the copy (the
    transformation engine, local CSE): every live manager that already
    holds fingerprint state for *base_cfg* derives state for *new_cfg*
    from it, with *labels* — every block whose content differs from the
    base, including freshly added ones — pending.  The copy's first
    fingerprint lookup is then an incremental refresh rather than a
    whole-graph hash.  Purely an optimisation: managers that never saw
    the base simply skip, and *new_cfg* is hashed from scratch on
    first use.
    """
    for manager in list(_LIVE_MANAGERS):
        manager.derive_fingerprint(new_cfg, base_cfg, labels)


@dataclass
class CacheStats:
    """Hit/miss/invalidation tallies for one manager, split by tier.

    ``hits`` are in-memory hits and ``misses`` are full misses (the
    solver actually ran); the disk tier is counted separately so batch
    reports and ``repro cache stats`` can tell "served from a previous
    process" apart from "already warm in this one":

    * ``disk_hits`` — lookups served by deserialising a store entry;
    * ``disk_misses`` — lookups where the store was consulted and had
      nothing usable (every full miss with a store attached);
    * ``disk_writes`` — solutions persisted after a full miss.

    The dense solver backend adds two memory-only tallies —
    ``plan_hits``/``plan_misses`` for the per-fingerprint plan caches
    (:class:`~repro.dataflow.dense.DenseGraph` solve plans and the
    fused :class:`~repro.dataflow.fused.LCMPlan` tier share the
    columns; kept out of the hit/miss tallies above so cache-rate
    assertions stay about *solutions*) — and ``backends``, a
    per-backend count of the solves this manager actually ran
    (``{"dense": ..., "reference": ...}``, plus ``"fused"`` counting
    whole-cascade runs of :mod:`repro.dataflow.fused`).
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_writes: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    backends: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without solving (either tier)."""
        return (self.hits + self.disk_hits) / self.lookups if self.lookups else 0.0


class AnalysisManager:
    """Memoizes analysis results keyed by CFG content fingerprint.

    Args:
        enabled: with False, every lookup recomputes (the CLI's
            ``--no-cache``); stats still record the misses, and the
            disk tier is bypassed entirely.
        store: an optional :class:`~repro.obs.store.SolutionStore`
            consulted between the memory tier and a fresh solve, and
            written through on misses (the CLI's ``--cache-dir``).
    """

    def __init__(self, enabled: bool = True, store=None) -> None:
        self.enabled = enabled
        self.store = store
        self.stats = CacheStats()
        self._store: Dict[Tuple[str, str], Any] = {}
        self._plans: Dict[str, Any] = {}
        self._fingerprints: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        _LIVE_MANAGERS.add(self)

    # -- keys -----------------------------------------------------------

    def fingerprint(self, cfg: CFG) -> str:
        """The content fingerprint of *cfg*, cached per object.

        The per-object cache holds a
        :class:`~repro.obs.fingerprint.FingerprintState`; blocks marked
        dirty by :meth:`notify_edited` / :meth:`invalidate` are
        re-hashed lazily here, so a lookup after an instruction-level
        edit pays O(edited region), not O(graph).
        """
        state = self._fingerprints.get(cfg)
        if state is None:
            state = FingerprintState.of(cfg)
            self._fingerprints[cfg] = state
            return state.value
        return state.current(cfg)

    def derive_fingerprint(self, new_cfg: CFG, base_cfg: CFG, labels) -> None:
        """Seed *new_cfg*'s fingerprint state from *base_cfg*'s digests.

        *labels* must cover every block of *new_cfg* whose content
        differs from *base_cfg* (including freshly added blocks); they
        are marked pending, so the first lookup on *new_cfg* refreshes
        incrementally.  A no-op when the base was never fingerprinted
        here, or when caching is disabled.
        """
        if not self.enabled:
            return
        base = self._fingerprints.get(base_cfg)
        if base is None:
            return
        self._fingerprints[new_cfg] = base.derive(labels)

    # -- lookups --------------------------------------------------------

    def cached(self, cfg: CFG, key: str, compute: Callable[[], Any]) -> Any:
        """Return the memoized value for (*cfg* content, *key*).

        Tiers, in order: memory, then the attached disk store (a hit is
        promoted into memory), then *compute* — whose result goes into
        memory and, when the store has a codec for it, onto disk.  The
        stored object is returned as-is on later hits — callers must
        treat it as immutable.
        """
        if not self.enabled:
            self.stats.misses += 1
            trace.count("cache.miss")
            return compute()
        fingerprint = self.fingerprint(cfg)
        full_key = (fingerprint, key)
        try:
            value = self._store[full_key]
        except KeyError:
            pass
        else:
            self.stats.hits += 1
            trace.count("cache.hit")
            return value
        if self.store is not None:
            value = self.store.load(fingerprint, key, cfg=cfg)
            if value is not None:
                self.stats.disk_hits += 1
                self._store[full_key] = value
                return value
            self.stats.disk_misses += 1
        self.stats.misses += 1
        trace.count("cache.miss")
        value = compute()
        self._store[full_key] = value
        if self.store is not None and self.store.save(fingerprint, key, value):
            self.stats.disk_writes += 1
        return value

    def dense_plan(self, cfg: CFG):
        """The dense solve plan for *cfg*, memoized by content fingerprint.

        Plans (:class:`~repro.dataflow.dense.DenseGraph`) are pure
        functions of graph content, so one compilation serves all four
        LCM solves plus liveness on the same graph — and any other
        graph with equal content.  The cache is memory-only (plans cost
        less to recompile than to deserialise) with its own
        ``plan_hits``/``plan_misses`` stats, so solution hit rates are
        unaffected.  With caching disabled, every call recompiles.
        """
        from repro.dataflow.dense import compile_plan

        if not self.enabled:
            self.stats.plan_misses += 1
            return compile_plan(cfg)
        fingerprint = self.fingerprint(cfg)
        try:
            plan = self._plans[fingerprint]
        except KeyError:
            self.stats.plan_misses += 1
            plan = compile_plan(cfg)
            self._plans[fingerprint] = plan
        else:
            self.stats.plan_hits += 1
        return plan

    def lcm_plan(self, cfg: CFG, local):
        """The fused LCM plan for *cfg*, memoized by content fingerprint.

        Plans (:class:`~repro.dataflow.fused.LCMPlan`) bundle the dense
        graph with the LCM local predicate rows lowered to raw ints, so
        the whole earliest/later/insert/replace cascade
        (:mod:`repro.dataflow.fused`) runs with zero per-call lowering.
        The underlying :class:`~repro.dataflow.dense.DenseGraph` comes
        from :meth:`dense_plan`, so fused and staged solves on one graph
        share a single id mapping.  Only sound when *local* was derived
        from *cfg*'s own default universe (the same caveat as the
        solution memo); callers with an explicit universe compile their
        own plan.  The cache is memory-only, keyed next to the dense
        plans, sharing the ``plan_hits``/``plan_misses`` stats and
        bumping the ``fused.plan.hit``/``fused.plan.miss`` counters.
        """
        from repro.dataflow.fused import compile_lcm_plan

        if not self.enabled:
            self.stats.plan_misses += 1
            trace.count("fused.plan.miss")
            return compile_lcm_plan(cfg, local)
        key = f"fused:{self.fingerprint(cfg)}"
        try:
            plan = self._plans[key]
        except KeyError:
            self.stats.plan_misses += 1
            trace.count("fused.plan.miss")
            plan = compile_lcm_plan(cfg, local, graph=self.dense_plan(cfg))
            self._plans[key] = plan
        else:
            self.stats.plan_hits += 1
            trace.count("fused.plan.hit")
        return plan

    def solve(self, cfg: CFG, problem, strategy: str = "auto"):
        """Memoized :func:`repro.dataflow.solver.solve`.

        The key includes the problem name, the vector width and the
        solver strategy; pass problems whose universe is derived from
        the graph content (the default everywhere) so equal fingerprints
        imply equal problems.  Actual solves (cache misses) share this
        manager's dense plan for the graph, and the backend that ran is
        tallied in ``stats.backends``.
        """
        from repro.dataflow.solver import solve as _solve

        key = f"solve:{problem.name}:w{problem.width}:{strategy}"

        def compute():
            solution = _solve(
                cfg, problem, strategy=strategy, plan=self.dense_plan(cfg)
            )
            backend = solution.stats.backend or "reference"
            self.stats.backends[backend] = (
                self.stats.backends.get(backend, 0) + 1
            )
            return solution

        return self.cached(cfg, key, compute)

    # -- invalidation ---------------------------------------------------

    def _drop_fingerprint(self, cfg: CFG) -> None:
        if self._fingerprints.pop(cfg, None) is not None:
            self.stats.invalidations += 1
            trace.count("cache.invalidate")

    def _mark_dirty(self, cfg: CFG, labels) -> None:
        """Mark *labels* pending in *cfg*'s fingerprint state.

        An invalidation is tallied the first time a clean, computed
        fingerprint goes stale — the same once-per-computed-value
        accounting the drop path uses.
        """
        state = self._fingerprints.get(cfg)
        if state is None:
            return
        if state.value is not None and not state.dirty:
            self.stats.invalidations += 1
            trace.count("cache.invalidate")
        state.mark_edited(labels)

    def invalidate(self, cfg: CFG, labels=None) -> None:
        """Note a structural mutation of *cfg* (the coarse path).

        The fingerprint state is patched when *labels* (the surviving
        blocks whose content changed) are given — the incremental
        refresh reconciles added/removed blocks itself — and dropped
        otherwise.
        """
        if labels is None:
            self._drop_fingerprint(cfg)
        else:
            self._mark_dirty(cfg, labels)

    def notify_edited(self, cfg: CFG, labels) -> None:
        """Record instruction-level edits to *cfg*'s *labels* blocks.

        The edited blocks are marked dirty in the fingerprint state
        (re-hashed at the next lookup).
        """
        self._mark_dirty(cfg, labels)

    def clear(self) -> None:
        """Drop every memoized result, plan and fingerprint."""
        self._store.clear()
        self._plans.clear()
        self._fingerprints = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self._store)
