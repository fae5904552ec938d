"""The benchmark's own check: exact counts repeat across runs.

Runs every workload twice, with different seeds, untraced and traced,
and asserts that the counts which must not depend on timing or order
read identically, and that every run passed the correctness gate.

    python3 perfbench/test_repeat.py        # or: python3 -m pytest perfbench

It takes a few minutes: each ``lcm-large`` run needs at least 200 items.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = {
    0: ("dyn_evals", "static_ops", "temp_live_points"),
    1: (
        "obs.fingerprint_full_per_item",
        "dataflow.liveness_fullsolves_per_item",
        "passes.rounds_per_item",
        "dataflow.fused_sweeps",
        "service.cache_hit_ratio",
        "obs.memo_hit_ratio",
    ),
}


def _run(workload, seed, trace):
    completed = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"], completed.stdout
    return {name: result["metrics"][name]["value"] for name in EXACT[trace]}


def test_exact_counts_repeat():
    sys.path.insert(0, HERE)
    from inputs import workload_names

    for workload in workload_names():
        for trace in (0, 1):
            first = _run(workload, 1, trace)
            second = _run(workload, 2, trace)
            assert first == second, (workload, trace, first, second)


if __name__ == "__main__":
    test_exact_counts_repeat()
    print("exact counts repeat on every workload")
