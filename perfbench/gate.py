"""The output-correctness gate and the exact code-quality counts.

Runs outside the timed loop and does not trust the optimizer: every
optimized program is executed by ``repro.interp`` next to its original
on a seeded input deck, and the final values of the source variables
and whether the exit was reached must agree.  The same executions give
the run-time count of the generated code (``dyn_evals``); the static
operation count and the temporaries' live points come from the
optimized graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from inputs import Item, stable_seed


@dataclass
class Gate:
    """Accumulates quality counts and divergences over checked programs."""

    workload: str
    seed: int
    deck: Dict[str, Any]
    dyn_evals: int = 0
    static_ops: int = 0
    temp_live_points: int = 0
    checked: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, item_name: str, detail: str) -> None:
        self.failures.append(
            f"{self.workload} seed={self.seed} item={item_name}: {detail}"
        )

    def check(self, item: Item, optimized) -> None:
        """Check one optimized graph against a fresh load of *item*."""
        from repro.api import load_cfg
        from repro.core.lifetime import measure_lifetimes
        from repro.interp import random_envs, run

        original = load_cfg(item.source)
        self.checked += 1
        max_steps = self.deck["max_steps"]
        source_vars = sorted(original.variables())
        envs = random_envs(
            original,
            self.deck["runs"],
            seed=stable_seed(self.deck["seed"], item.name),
        )
        for index, env in enumerate(envs):
            before = run(original, env, max_steps=max_steps)
            after = run(optimized, env, max_steps=max_steps)
            if not before.reached_exit:
                # A run the original cannot finish proves nothing.
                continue
            if not after.reached_exit:
                self.fail(item.name, f"deck run {index}: exit not reached")
                continue
            self.dyn_evals += after.total_evaluations
            for name in source_vars:
                want, got = before.env.get(name, 0), after.env.get(name, 0)
                if want != got:
                    self.fail(
                        item.name,
                        f"deck run {index}: variable {name!r} is {got}, "
                        f"expected {want}",
                    )
                    break
        self.static_ops += optimized.static_computation_count()
        temps = optimized.variables() - original.variables()
        self.temp_live_points += measure_lifetimes(
            optimized, temps
        ).total_live_points
