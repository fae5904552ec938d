"""Batch throughput: the parallel corpus driver vs. the serial baseline.

Pushes the realistic corpus (``tests/corpus``) plus a pile of generated
workloads through :func:`repro.batch.run_batch` at increasing worker
counts.  Two things are checked, matching the driver's contract:

* every job count produces **bit-identical per-program IR** (equal
  content fingerprints item by item) — parallelism must not change
  results;
* the parallel run completes with a zero error tally.

The wall-time rows (items/s, speedup over ``jobs=1``) are recorded in
the end-of-run report tables, and the ``jobs``-max batch report is
persisted as ``BENCH_BATCH.json`` next to ``BENCH_TRACE.json``.

A second benchmark measures the persistent store (docs/CACHING.md):
a cold run populating a fresh ``--cache-dir`` vs. a warm run over the
same corpus, asserting the warm run does **zero solver work** (no
memory-tier misses, therefore no solves) with bit-identical IR.
"""

import json
import os
import tempfile
import time
from pathlib import Path

from repro.api import load_cfg, optimize_cfg
from repro.batch import BatchConfig, items_from_dir, run_batch, WorkItem
from repro.bench.generators import GeneratorConfig, random_program
from repro.bench.harness import Table, record_report, write_json_report
from repro.lang.unparse import unparse
from repro.obs.fingerprint import cfg_fingerprint
from repro.obs.manager import AnalysisManager
from repro.obs.trace import tracing
from repro.passes.pipeline import run_pipeline

CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "corpus"
GENERATED = 51  # with the 9 corpus programs: a 60-program batch
JOB_COUNTS = (1, 2, 4)
REPORT_FILENAME = "BENCH_BATCH.json"

# Liveness is never re-solved per edit (DCE is one faint-variable
# solve); re-solving after every edit cost this corpus ~14 solves per
# item (826 solves / 60 items).
MAX_LIVENESS_SOLVES_PER_ITEM = 2.0

# Incremental fingerprints: one full hash for the input, every later
# fingerprint of the evolving graph is a per-block patch.
MAX_FULL_FINGERPRINTS_PER_ITEM = 2.0

# Serial walls over this exact 60-item corpus measured at commit
# 4c3a37c (before incremental fingerprints, dirty-region scheduling and
# the transform-side rewrites): the before side of the speedup rows.
SEED_OPTIMIZE_WALL_S = 0.638
SEED_PIPELINE_WALL_S = 1.016


def _merge_batch_report(updates):
    """Read-modify-write ``BENCH_BATCH.json`` so the throughput and
    rewrite benchmarks can each update their own keys without
    clobbering the other's numbers (the tests run in either order, or
    alone)."""
    data = {}
    try:
        with open(REPORT_FILENAME) as handle:
            previous = json.load(handle)
        if (
            isinstance(previous, dict)
            and previous.get("format") == "repro-batch-report"
        ):
            data = previous
    except (OSError, ValueError):
        pass
    data.update(updates)
    try:
        return write_json_report(REPORT_FILENAME, data)
    except OSError:
        return data  # read-only invocation dir: the artifact is best-effort


def liveness_solves(report) -> int:
    """Full liveness fixpoint solves recorded in *report*'s trace."""
    entry = report.merged_summary().get("dataflow.solve[liveness]", {})
    return int(entry.get("count", 0))


def build_items():
    items = items_from_dir(str(CORPUS_DIR))
    for seed in range(GENERATED):
        source = unparse(random_program(seed, GeneratorConfig(statements=14)))
        items.append(WorkItem(f"gen{seed:03d}", "source", source))
    return items


def sweep():
    items = build_items()
    reports = {}
    for jobs in JOB_COUNTS:
        report = run_batch(items, BatchConfig(jobs=jobs, timeout=60.0))
        assert report.ok, report.tally
        solves = liveness_solves(report)
        per_item = solves / len(report.items)
        assert per_item <= MAX_LIVENESS_SOLVES_PER_ITEM, (
            f"jobs={jobs}: {solves} liveness solves over "
            f"{len(report.items)} items ({per_item:.1f}/item) — the "
            "pipeline must not re-solve liveness per edit"
        )
        reports[jobs] = report

    # Parallelism must not change results: same fingerprints everywhere.
    baseline = [item.fingerprint for item in reports[JOB_COUNTS[0]].items]
    for jobs in JOB_COUNTS[1:]:
        fingerprints = [item.fingerprint for item in reports[jobs].items]
        assert fingerprints == baseline, f"jobs={jobs} changed the IR"
    return reports


def test_batch_throughput(benchmark):
    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        ["jobs", "items", "wall s", "items/s", "speedup", "hit rate", "live solves"],
        title=f"batch throughput over {len(reports[1].items)} programs "
        f"({os.cpu_count()} cores)",
    )
    serial_wall = reports[JOB_COUNTS[0]].wall_time_s
    for jobs in JOB_COUNTS:
        report = reports[jobs]
        wall = report.wall_time_s
        table.add_row(
            jobs,
            len(report.items),
            wall,
            len(report.items) / wall if wall else 0.0,
            serial_wall / wall if wall else 0.0,
            report.cache_stats()["hit_rate"],
            liveness_solves(report),
        )
    record_report("batch throughput", table)

    final = reports[max(JOB_COUNTS)]
    payload = final.to_dict()
    payload["liveness"] = {
        "full_solves": liveness_solves(final),
        "solves_per_item": liveness_solves(final) / len(final.items),
    }
    _merge_batch_report(payload)


def store_sweep(store_dir):
    items = build_items()
    config = BatchConfig(jobs=2, timeout=60.0, store_path=store_dir)
    cold = run_batch(items, config)
    assert cold.ok, cold.tally
    warm = run_batch(items, config)
    assert warm.ok, warm.tally

    # The warm run must do zero solver work: a memory-tier miss is the
    # only path that runs a solver, and there are none.
    warm_stats = warm.cache_stats()
    assert warm_stats["misses"] == 0, warm_stats
    assert warm_stats["disk_writes"] == 0, warm_stats
    assert warm_stats["hits"] + warm_stats["disk_hits"] > 0
    # ... with bit-identical IR to the cold run.
    cold_fps = [item.fingerprint for item in cold.items]
    warm_fps = [item.fingerprint for item in warm.items]
    assert warm_fps == cold_fps, "warm store changed the IR"
    return cold, warm


def test_batch_warm_store(benchmark):
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:
        cold, warm = benchmark.pedantic(
            store_sweep, args=(store_dir,), rounds=1, iterations=1
        )
        table = Table(
            ["run", "items", "wall s", "misses", "disk hits", "disk writes"],
            title=f"persistent store: cold vs warm over {len(cold.items)} "
            f"programs (jobs=2, entries={warm.store['entries']})",
        )
        for name, report in (("cold", cold), ("warm", warm)):
            stats = report.cache_stats()
            table.add_row(
                name,
                len(report.items),
                report.wall_time_s,
                stats["misses"],
                stats["disk_hits"],
                stats["disk_writes"],
            )
        record_report("batch warm store", table)


def rewrite_sweep():
    """The rewrite-side benchmark: dirty scheduling vs. the whole-CFG
    reference arm, over the same corpus.

    The two arms must produce bit-identical IR (equal output
    fingerprints item by item, hashed from scratch after the timed
    loop); the dirty arm must fingerprint the whole graph at most
    :data:`MAX_FULL_FINGERPRINTS_PER_ITEM` times per item — one full
    hash for the input, incremental patches for everything after.
    """
    items = build_items()
    cfgs = [load_cfg(item.payload, item.kind) for item in items]

    arms = {}
    for scheduling in ("full", "dirty"):
        manager = AnalysisManager()
        with tracing() as tracer:
            start = time.perf_counter()
            results = []
            for cfg in cfgs:
                manager.fingerprint(cfg)
                results.append(
                    run_pipeline(
                        cfg, "lcm", manager=manager, scheduling=scheduling
                    )
                )
            wall = time.perf_counter() - start
        arms[scheduling] = {
            "wall": wall,
            "outputs": [cfg_fingerprint(result.cfg) for result in results],
            "counters": dict(tracer.counters),
        }

    assert arms["dirty"]["outputs"] == arms["full"]["outputs"], (
        "dirty-region scheduling changed the IR"
    )
    full_hashes = arms["dirty"]["counters"].get("fingerprint.full", 0)
    per_item = full_hashes / len(cfgs)
    assert per_item <= MAX_FULL_FINGERPRINTS_PER_ITEM, (
        f"{full_hashes} whole-graph hashes over {len(cfgs)} items "
        f"({per_item:.1f}/item) — fingerprints should patch, not rehash"
    )

    # The single-pass optimize path (what the serve daemon drives).
    manager = AnalysisManager()
    with tracing() as tracer:
        start = time.perf_counter()
        for cfg in cfgs:
            optimize_cfg(cfg, "lcm", manager=manager)
        optimize_wall = time.perf_counter() - start
    optimize_counters = dict(tracer.counters)
    optimize_full = optimize_counters.get("fingerprint.full", 0)
    assert optimize_full / len(cfgs) <= MAX_FULL_FINGERPRINTS_PER_ITEM

    return cfgs, arms, optimize_wall, optimize_counters


def test_batch_rewrite(benchmark):
    cfgs, arms, optimize_wall, optimize_counters = benchmark.pedantic(
        rewrite_sweep, rounds=1, iterations=1
    )
    n = len(cfgs)
    dirty = arms["dirty"]
    table = Table(
        ["path", "wall s", "seed s", "speedup", "fp full", "fp incr"],
        title=f"rewrite side over {n} programs (serial)",
    )
    table.add_row(
        "optimize (lcm)",
        optimize_wall,
        SEED_OPTIMIZE_WALL_S,
        SEED_OPTIMIZE_WALL_S / optimize_wall if optimize_wall else 0.0,
        optimize_counters.get("fingerprint.full", 0),
        optimize_counters.get("fingerprint.incr", 0),
    )
    for name in ("full", "dirty"):
        arm = arms[name]
        table.add_row(
            f"pipeline ({name})",
            arm["wall"],
            SEED_PIPELINE_WALL_S,
            SEED_PIPELINE_WALL_S / arm["wall"] if arm["wall"] else 0.0,
            arm["counters"].get("fingerprint.full", 0),
            arm["counters"].get("fingerprint.incr", 0),
        )
    record_report("batch rewrite", table)

    _merge_batch_report(
        {
            "rewrite": {
                "items": n,
                "optimize_wall_s": optimize_wall,
                "pipeline_wall_s": {
                    name: arms[name]["wall"] for name in ("full", "dirty")
                },
                "seed_baseline_s": {
                    "optimize": SEED_OPTIMIZE_WALL_S,
                    "pipeline": SEED_PIPELINE_WALL_S,
                },
                "speedup_vs_seed": {
                    "optimize": SEED_OPTIMIZE_WALL_S / optimize_wall
                    if optimize_wall
                    else 0.0,
                    "pipeline": SEED_PIPELINE_WALL_S / dirty["wall"]
                    if dirty["wall"]
                    else 0.0,
                },
                "fingerprints": {
                    "optimize": {
                        "full": optimize_counters.get("fingerprint.full", 0),
                        "incr": optimize_counters.get("fingerprint.incr", 0),
                    },
                    "pipeline_dirty": {
                        "full": dirty["counters"].get("fingerprint.full", 0),
                        "incr": dirty["counters"].get("fingerprint.incr", 0),
                        "full_per_item": dirty["counters"].get(
                            "fingerprint.full", 0
                        )
                        / n,
                    },
                },
            }
        }
    )
