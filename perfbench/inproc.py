"""The in-process workloads: ``lcm-large`` and ``pipeline-small``.

One item is ``repro.api.load_cfg`` plus ``repro.api.optimize_cfg`` of
one source with a fresh ``AnalysisManager`` (cold), run serially in a
closed loop.  The timed loop runs whole passes over the corpus, each
pass in a seeded order, so every run measures the same mix of
programs.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

import ledger
from calibrate import STRETCH_S, Scaler, scaled
from gate import Gate
from inputs import Item, mint

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Fewest timed items per run: p95 needs ten samples beyond it.
MIN_ITEMS = 200


def _compile(item: Item, pipeline: bool, manager):
    from repro.api import load_cfg, optimize_cfg

    cfg = load_cfg(item.source)
    return optimize_cfg(cfg, "lcm", pipeline=pipeline, manager=manager)


def _traced_compile(tracer, item: Item, pipeline: bool, manager):
    from repro.api import load_cfg, optimize_cfg

    with tracer.span("bench.load_cfg"):
        cfg = load_cfg(item.source)
    with tracer.span("bench.optimize_cfg"):
        return optimize_cfg(cfg, "lcm", pipeline=pipeline, manager=manager)


class _Pass:
    """Runs items, recording latencies, failures and first outputs."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.latencies: List[float] = []
        #: Machine-speed scale factor of each latency's stretch.
        self.scales: List[float] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.scaled_wall_s = 0.0
        #: item name -> (output fingerprint, optimized graph) of the
        #: first successful compile; later passes must reproduce it.
        self.first: Dict[str, Any] = {}

    def run(
        self, order: List[Item], compile_one: Callable, scaler=None
    ) -> float:
        """Run one pass; return its wall time, calibration excluded.

        With a *scaler*, the reference loop is timed after every stretch
        of ``STRETCH_S`` seconds and the stretch's latencies are scaled.
        """
        wall = 0.0
        stretch = time.perf_counter()
        for item in order:
            self.attempted += 1
            began = time.perf_counter()
            try:
                outcome = compile_one(item)
            except Exception as exc:  # one bad item must not end the run
                self.failures.append(
                    f"{self.workload} seed={self.seed} item={item.name}: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            now = time.perf_counter()
            self.latencies.append(now - began)
            seen = self.first.get(item.name)
            if seen is None:
                self.first[item.name] = (outcome.fingerprint, outcome.cfg)
            elif seen[0] != outcome.fingerprint:
                self.failures.append(
                    f"{self.workload} seed={self.seed} item={item.name}: "
                    f"output fingerprint changed between passes"
                )
            if scaler is not None and now - stretch >= STRETCH_S:
                wall += self._close_stretch(scaler, now - stretch)
                stretch = time.perf_counter()
        elapsed = time.perf_counter() - stretch
        if scaler is None:
            return wall + elapsed
        return wall + self._close_stretch(scaler, elapsed)

    def _close_stretch(self, scaler, elapsed: float) -> float:
        scale = scaler.mark()
        self.scales.extend([scale] * (len(self.latencies) - len(self.scales)))
        self.scaled_wall_s += elapsed * scale
        return elapsed


def run(
    workload: str,
    spec: Dict[str, Any],
    deck: Dict[str, Any],
    seed: int,
    seconds: float,
    traced: bool,
) -> Dict[str, Any]:
    from repro.obs.manager import AnalysisManager

    pipeline = spec["pipeline"]
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        items = mint(spec)
        # Warm-up: lazy imports and first-call costs stay out of timing.
        _compile(items[0], pipeline, AnalysisManager())
        raw_setups.append(time.perf_counter() - began)
        setups.append(scaled(raw_setups[-1]))
    scaler = Scaler()

    rng = random.Random(seed)
    passes = _Pass(workload, seed)
    untraced_s = 0.0
    tally = _TracedTally() if traced else None
    began = time.perf_counter()
    while True:
        order = list(items)
        rng.shuffle(order)
        untraced_s += passes.run(
            order,
            lambda item: _compile(item, pipeline, AnalysisManager()),
            scaler if tally is None else None,
        )
        if tally is not None:
            # Same order, traced: the pair gives the tracing overhead.
            tally.run_pass(passes, order, pipeline)
        elapsed = time.perf_counter() - began
        if elapsed >= seconds and (
            tally is not None or len(passes.latencies) >= MIN_ITEMS
        ):
            break

    gate = Gate(workload, seed, deck)
    by_name = {item.name: item for item in items}
    for name in sorted(passes.first):
        gate.check(by_name[name], passes.first[name][1])
    missing = len(items) - len(passes.first)
    result = {
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "latencies": passes.latencies,
        "scales": passes.scales,
        "wall_s": untraced_s,
        "scaled_wall_s": passes.scaled_wall_s,
        "attempted": passes.attempted,
        "failures": passes.failures + gate.failures,
        "gate": gate,
        "unchecked": missing,
    }
    if tally is not None:
        result.update(tally.metrics(untraced_s))
    return result


class _TracedTally:
    """Ledger rows and counters summed over the traced passes."""

    def __init__(self) -> None:
        self.rows: Dict[str, float] = defaultdict(float)
        self.unmapped: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.memo: Dict[str, int] = defaultdict(int)
        self.fused_sweeps = 0
        self.rounds = 0
        self.items = 0
        self.wall_s = 0.0

    def run_pass(self, passes: _Pass, order: List[Item], pipeline: bool):
        from repro.obs import trace
        from repro.obs.manager import AnalysisManager

        tracer = trace.Tracer()
        managers = []

        def compile_one(item):
            manager = AnalysisManager()
            managers.append(manager)
            return _traced_compile(tracer, item, pipeline, manager)

        trace.activate(tracer)
        try:
            self.wall_s += passes.run(order, compile_one)
        finally:
            trace.deactivate()
        self.items += len(order)
        rows, unmapped = ledger.self_times(tracer.events)
        for row, ms in rows.items():
            self.rows[row] += ms
        for name, ms in unmapped.items():
            self.unmapped[name] += ms
        for name, n in tracer.counters.items():
            self.counters[name] += n
        for event in tracer.events:
            if event.name == "lcm.fused":
                self.fused_sweeps += event.attrs.get("sweeps", 0)
            elif event.name == "pipeline.round":
                self.rounds += 1
        for manager in managers:
            stats = manager.stats
            self.memo["hits"] += stats.hits
            self.memo["misses"] += stats.misses
            self.memo["disk_hits"] += stats.disk_hits
            self.memo["disk_writes"] += stats.disk_writes

    def metrics(self, untraced_s: float) -> Dict[str, Any]:
        n = max(self.items, 1)
        wall_ms = self.wall_s * 1000.0
        unattributed, problems = ledger.close(dict(self.rows), wall_ms)
        layers = {row: self.rows.get(row, 0.0) / n for row in ledger.ROWS}
        memo = self.memo
        lookups = memo["hits"] + memo["disk_hits"] + memo["misses"]
        layers.update(
            {
                "unattributed_ms": unattributed / n,
                "ledger.traced_wall_ms": wall_ms / n,
                "trace_overhead_ratio": self.wall_s / untraced_s,
                "dataflow.fused_sweeps": self.fused_sweeps / n,
                "obs.fingerprint_full_per_item":
                    self.counters["fingerprint.full"] / n,
                "obs.fingerprint_incr_per_item":
                    self.counters["fingerprint.incr"] / n,
                "dataflow.liveness_fullsolves_per_item":
                    self.counters["dataflow.incr.fullsolve"] / n,
                "passes.rounds_per_item": self.rounds / n,
                "obs.memo_hit_ratio":
                    (memo["hits"] + memo["disk_hits"]) / max(lookups, 1),
                "obs.memo_misses": memo["misses"] / n,
                "obs.store_disk_hits": memo["disk_hits"] / n,
                "obs.store_disk_writes": memo["disk_writes"] / n,
            }
        )
        return {
            "layers": layers,
            "layer_samples": self.items,
            "unmapped": dict(self.unmapped),
            "ledger_problems": problems,
        }
