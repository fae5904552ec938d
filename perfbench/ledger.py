"""The layer ledger: exclusive (self) time per layer from trace spans.

``Tracer.summary()`` sums *inclusive* span time, so a ``fingerprint``
span inside ``lcm.analyze`` would be counted twice.  The ledger takes
each span's duration minus the time its direct children cover, maps the
span to the layer (module) that opened it, and sums per layer.  What no
span covers is the ``unattributed_ms`` row, so the rows add up to the
traced wall time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: Span name -> ledger row.  ``bench.*`` spans are opened by this
#: benchmark around the public calls; every other name is a span the
#: program already emits.
SPAN_ROWS = {
    "bench.load_cfg": "lang.load_ms",
    "bench.optimize_cfg": "api.optimize_self_ms",
    "pass.validate": "ir.validate_ms",
    "pass.lcse": "core.localcse_ms",
    "lcm.local": "analysis.local_ms",
    "lcm.fused": "dataflow.fused_ms",
    "lcm.analyze": "core.lcm_self_ms",
    "optimize": "core.optimize_self_ms",
    "fingerprint": "obs.fingerprint_ms",
    "pipeline.run": "passes.pipeline_self_ms",
    "pipeline.round": "passes.pipeline_self_ms",
    "pass.canonicalize": "passes.canonicalize_ms",
    "pass.copyprop": "passes.copyprop_ms",
    "pass.constfold": "passes.constfold_ms",
    "pass.dce": "passes.dce_ms",
    "pass.simplify": "passes.simplify_ms",
}

#: ``dataflow.solve`` spans split by their ``problem`` attribute.
LIVENESS_ROW = "dataflow.liveness_ms"
SOLVE_ROW = "dataflow.solve_ms"

#: Every row an in-process ledger can fill, in report order.
ROWS: Tuple[str, ...] = tuple(
    dict.fromkeys(list(SPAN_ROWS.values()) + [LIVENESS_ROW, SOLVE_ROW])
)


def row_of(name: str, attrs: Dict) -> str:
    """The ledger row of one span, or ``""`` when no row claims it."""
    if name == "dataflow.solve":
        if attrs.get("problem") == "liveness":
            return LIVENESS_ROW
        return SOLVE_ROW
    return SPAN_ROWS.get(name, "")


def self_times(events: Iterable) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Sum span self time per ledger row.

    Returns ``(rows, unmapped)``: milliseconds per row, and per span
    name for spans no row claims (they end up unattributed).
    """
    events = list(events)
    covered: Dict[int, float] = defaultdict(float)
    for event in events:
        if event.parent is not None:
            covered[event.parent] += event.duration_ms
    rows: Dict[str, float] = defaultdict(float)
    unmapped: Dict[str, float] = defaultdict(float)
    for event in events:
        own = event.duration_ms - covered[event.id]
        row = row_of(event.name, event.attrs)
        if row:
            rows[row] += own
        else:
            unmapped[event.name] += own
    return dict(rows), dict(unmapped)


def close(
    rows: Dict[str, float], wall_ms: float, digits: int = 4
) -> Tuple[float, List[str]]:
    """The ``unattributed_ms`` row and any problems with the closure.

    The rows plus the unattributed remainder must equal *wall_ms* after
    rounding to *digits* decimals, and the rows must not cover more
    than the wall time (that would mean a span was counted twice).
    """
    unattributed = wall_ms - sum(rows.values())
    problems = []
    if unattributed < -1e-3 * max(wall_ms, 1.0):
        problems.append(
            f"ledger over-covers the wall time: rows sum to "
            f"{sum(rows.values()):.3f} ms of {wall_ms:.3f} ms"
        )
    rounded = sum(round(v, digits) for v in rows.values())
    residue = rounded + round(unattributed, digits) - round(wall_ms, digits)
    if abs(residue) > (len(rows) + 2) * 10.0 ** -digits:
        problems.append(f"ledger does not close: residue {residue:.6f} ms")
    return unattributed, problems
