"""Plain-text tables and trace persistence for the benchmark reports.

The benchmark modules print the same kind of rows the paper's
figures/claims contain; this keeps the rendering in one place so every
report looks alike and diffs cleanly run to run.  The suite can also
persist the observability layer's trace summary alongside the tables
(:func:`write_trace_summary`), giving every benchmark run a
machine-readable record of analysis timings, sweep counts and
bit-vector operation tallies.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.trace import Tracer, current


class Table:
    """A fixed-header, aligned, plain-text table."""

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_format(cell) for cell in cells])

    def add_mapping(self, row: Dict[str, object]) -> None:
        """Add a row from a ``header -> value`` mapping."""
        self.add_row(*(row.get(header, "") for header in self.headers))

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


# ---------------------------------------------------------------------------
# Report registry: benchmark modules record their tables here and the
# benchmark suite's conftest prints everything in the terminal summary
# (so the paper-shaped rows survive pytest's output capturing).
# ---------------------------------------------------------------------------

_REPORTS: List[str] = []


def record_report(title: str, body: object) -> None:
    """Register a rendered report for the end-of-run summary."""
    text = body.render() if isinstance(body, Table) else str(body)
    _REPORTS.append(f"== {title} ==\n{text}")


def drain_reports() -> List[str]:
    """Return and clear all recorded reports."""
    reports = list(_REPORTS)
    _REPORTS.clear()
    return reports


# ---------------------------------------------------------------------------
# Trace persistence: benchmark runs carry the trace summary with them so
# timing/sweep/bit-vector-op numbers land next to the rendered tables.
# ---------------------------------------------------------------------------


def trace_summary_payload(
    tracer: Optional[Tracer] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A benchmark-JSON payload for *tracer* (default: the active one).

    The payload embeds the full ``repro-trace`` document (events,
    counters, gauges, per-span-name summary) under ``"trace"`` plus any
    *extra* run metadata at the top level.
    """
    tracer = tracer if tracer is not None else current()
    if tracer is None:
        raise ValueError("no tracer given and none active")
    payload: Dict[str, Any] = {
        "format": "repro-bench-trace",
        "version": 1,
        "trace": tracer.to_dict(),
    }
    if extra:
        payload.update(extra)
    return payload


def write_json_report(path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Persist any benchmark JSON *payload* to *path*; returns it.

    The common sink for machine-readable benchmark artifacts — trace
    summaries (:func:`write_trace_summary`) and batch reports
    (``BatchReport.to_dict()``) both land through here so every
    artifact is written the same way.
    """
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def write_trace_summary(
    path: str,
    tracer: Optional[Tracer] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Persist the trace summary JSON to *path*; returns the payload."""
    return write_json_report(path, trace_summary_payload(tracer, extra))
