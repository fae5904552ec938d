"""The layer-ledger benchmark: compile latency, code quality, the daemon.

Run from the repository root::

    python3 perfbench/run.py --workload lcm-large --seed 1 --trace 0

Workloads (``perfbench/workloads.json`` pins their inputs and says why
each was chosen):

* ``lcm-large`` — single-pass ``lcm``, cold, serial, ~200-block programs;
* ``pipeline-small`` — the full pass pipeline, cold, serial, ~25 blocks;
* ``serve-repeat`` — the ``repro serve`` daemon under fresh, exact-repeat
  and re-spelled-repeat requests.

``--trace 0`` runs untraced and reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` reports the per-layer ledger from a
traced run.  Without ``--workload`` every workload runs, and without
``--trace`` both modes run.  Each report is a table of metrics (value,
unit, sample count) followed by one JSON line::

    {"correct": true, "attempted": 2310, "failed": 0, "metrics": {...}}

Times of the in-process workloads are scaled by a calibration loop timed
between items (``calibrate.py``); the table prints the unscaled value
next to each scaled one.  Every optimized program is checked against
its original by the interpreter; each mismatch is printed as a ``FAIL``
line and counts as failed.  Exit status: 0 with a report, 2 when the
repository sources are missing, 3 when the minted inputs differ from
the pinned ones.

The benchmark's own check, ``python3 perfbench/test_repeat.py``, runs
each workload twice and asserts that the exact counts repeat.
"""

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Fresh interpreters timed importing the program; ``setup_s`` counts
#: the median.  One import per run, timed on this host, spread by a
#: third from run to run.
IMPORT_REPEATS = 7


def _percentile(sorted_values, share):
    """Nearest-rank percentile and how many samples lie beyond it."""
    rank = max(1, math.ceil(len(sorted_values) * share / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _peak_rss_mb(with_workers):
    """This process's peak RSS, plus the largest child's for the daemon
    workloads (the children are then the pool workers)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def import_seconds():
    """Median time of a fresh interpreter importing the program, as
    ``(scaled, unscaled)`` seconds (see ``calibrate.py``)."""
    from calibrate import scaled

    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); "
        "import repro.api, repro.service.server"
    )
    times, raw = [], []
    for _ in range(IMPORT_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        raw.append(time.perf_counter() - began)
        times.append(scaled(raw[-1]))
    return statistics.median(times), statistics.median(raw)


def _reap_children():
    """Wait for every process this one started, so none outlives it.

    Besides the pools' own workers, a spawn-started process brings up
    multiprocessing's resource tracker, which exits only after its
    parent unless stopped here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def end_to_end(result, import_s, with_workers):
    """``{name: (value, samples, raw value)}`` for the untraced metrics.

    Times are scaled to the calibration loop's nominal speed (see
    ``calibrate.py``); the raw value is the unscaled measurement.
    """
    raw = sorted(result["latencies"])
    if not raw:
        return {}
    scaled = sorted(
        latency * scale
        for latency, scale in zip(result["latencies"], result["scales"])
    )
    n = len(raw)
    p95, beyond = _percentile(scaled, 95)
    gate = result["gate"]
    setups, raw_setups = result["setup_s"], result["raw_setup_s"]
    return {
        "setup_s": (
            import_s[0] + statistics.median(setups),
            len(setups),
            import_s[1] + statistics.median(raw_setups),
        ),
        "items_per_s": (
            n / result["scaled_wall_s"], n, n / result["wall_s"]
        ),
        "item_p50_ms": (
            _percentile(scaled, 50)[0] * 1000.0,
            n,
            _percentile(raw, 50)[0] * 1000.0,
        ),
        "item_p95_ms": (p95 * 1000.0, n, _percentile(raw, 95)[0] * 1000.0),
        "dyn_evals": (gate.dyn_evals, gate.checked, None),
        "static_ops": (gate.static_ops, gate.checked, None),
        "temp_live_points": (gate.temp_live_points, gate.checked, None),
        "peak_rss_mb": (_peak_rss_mb(with_workers), 1, None),
        "_beyond_p95": (beyond, n, None),
    }


def report(workload, traced, result, import_s, with_workers, declared):
    """Print the metric table, the failures and the JSON result line."""
    failures = list(result["failures"])
    if result["unchecked"]:
        failures.append(
            f"{workload}: {result['unchecked']} programs never compiled, "
            "so the gate could not check them"
        )
    if traced:
        names = declared["per_layer"]
        samples = result["layer_samples"]
        values = {
            name: (result["layers"].get(name, 0.0), samples, None)
            for name in names
        }
        failures.extend(f"{workload}: {p}" for p in result["ledger_problems"])
    else:
        names = declared["end_to_end"]
        values = end_to_end(result, import_s, with_workers)
        beyond = values.pop("_beyond_p95", (0, 0))[0]
        if beyond < 10:
            failures.append(
                f"{workload}: only {beyond} samples beyond p95 (need 10)"
            )
    attempted = result["attempted"]
    mode = "traced" if traced else "untraced"
    print(f"== {workload} ({mode}, seed {result['gate'].seed})")
    for name, unit in names.items():
        value, count, raw = values.get(name, (float("nan"), 0, None))
        line = f"  {name:<40} {value:>14.4f} {unit:<11} n={count}"
        if raw is not None:
            line += f"  (unscaled {raw:.4f})"
        print(line)
    print(
        f"  {'fail_ratio':<40} {len(failures) / max(attempted, 1):>14.4f} "
        f"{'ratio':<11} n={attempted}"
    )
    if traced:
        rows = sum(
            v for k, (v, _, _) in values.items()
            if k.endswith("_ms") and k != "ledger.traced_wall_ms"
        )
        print(
            f"  ledger: rows incl. unattributed {rows:.4f} ms/item, "
            f"traced wall {values['ledger.traced_wall_ms'][0]:.4f} ms/item"
        )
        for name, ms in sorted(result["unmapped"].items()):
            print(f"  unattributed span {name}: {ms:.3f} ms")
        for name, n in sorted(result.get("host_counters", {}).items()):
            print(f"  host counter {name}: {n}")
    for failure in failures:
        print(f"FAIL {failure}")
    metrics = {
        name: {"value": values[name][0], "unit": unit}
        for name, unit in names.items()
        if name in values
    }
    print(
        json.dumps(
            {
                "correct": not failures and len(metrics) == len(names),
                "attempted": attempted,
                "failed": min(len(failures), attempted),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        print(
            f"perfbench: no repro sources under {SRC}; run from the root "
            "of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    import repro.api  # noqa: F401
    import repro.service.server  # noqa: F401

    import inproc
    import inputs
    import serve

    import_s = import_seconds()

    # The daemon's error logs must reach stderr even though the serve
    # workload also counts them.
    logging.basicConfig(level=logging.WARNING)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    declared = {
        key: {m["name"]: m["unit"] for m in benchmark[key]}
        for key in ("end_to_end", "per_layer")
    }
    known = inputs.workload_names()
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    workloads = [args.workload] if args.workload else known
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    # The daemon's solution stores live here, inside the checkout.
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for workload in workloads:
            spec, deck = inputs.load_spec(workload)
            for traced in modes:
                try:
                    if spec["kind"] == "serve":
                        result = serve.run(
                            workload, spec, deck, args.seed, args.seconds,
                            traced, workdir,
                        )
                    else:
                        result = inproc.run(
                            workload, spec, deck, args.seed, args.seconds,
                            traced,
                        )
                except inputs.InputDrift as exc:
                    print(f"perfbench: {workload}: {exc}", file=sys.stderr)
                    return 3
                report(
                    workload, traced, result, import_s,
                    spec["kind"] == "serve", declared,
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _reap_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
