"""Machine-speed calibration: a frozen reference loop timed between items.

On shared hosts the same pass over the same programs takes 20-40% more
or less wall time from one minute to the next, with no steal time and
with CPU time tracking wall time: the machine itself runs slower or
faster, and the speed moves within seconds.  The reference loop below
imports nothing from the program and never changes, so its time
measures only that drift.  The in-process workloads time it after every
stretch of about ``STRETCH_S`` seconds of measured work and report each
stretch's times scaled to the loop's nominal time:

    reported = measured * NOMINAL_S / mean(recent reference times)

Each set-up sample is scaled on its own, by a reference timing taken
right after it.  Calibration time is never counted as work, and the
raw, unscaled values are printed next to the scaled ones.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import statistics
import time
from collections import deque

#: The reference loop's time on the machine the bounds were set on.
#: Scaled times read as seconds on that machine at that speed.
NOMINAL_S = 0.008
#: Measured work between two reference timings, in seconds.
STRETCH_S = 0.1
#: Reference timings averaged into one scale factor.
WINDOW = 8


def reference_work(blocks: int = 600, width: int = 128, seed: int = 5) -> str:
    """Compiler-shaped work: a random graph, a liveness fixpoint over
    integer bit sets, and a hash of each block's JSON rendering."""
    rng = random.Random(seed)
    succ = {
        b: [rng.randrange(blocks) for _ in range(rng.randint(1, 2))]
        for b in range(blocks)
    }
    use = {b: rng.getrandbits(width) for b in range(blocks)}
    kill = {b: rng.getrandbits(width) for b in range(blocks)}
    live = dict.fromkeys(range(blocks), 0)
    changed = True
    while changed:
        changed = False
        for b in reversed(range(blocks)):
            out = 0
            for s in succ[b]:
                out |= live[s]
            new = use[b] | (out & ~kill[b])
            if new != live[b]:
                live[b] = new
                changed = True
    digest = hashlib.sha256()
    for b in range(blocks):
        text = json.dumps(
            {
                "block": b,
                "succ": succ[b],
                "live": bin(live[b]).count("1"),
                "instrs": [f"t{i} = v{(b * i) % 13} + {i}" for i in range(8)],
            },
            sort_keys=True,
        )
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def reference_time(samples: int = 1) -> float:
    """Median wall time of *samples* runs of the reference loop."""
    times = []
    for _ in range(samples):
        began = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def scaled(seconds: float) -> float:
    """*seconds* of work that just ended, scaled by the median of three
    reference timings taken right after it."""
    return seconds * NOMINAL_S / reference_time(samples=3)


def _helper(conn) -> None:
    while True:
        try:
            samples = conn.recv()
        except EOFError:  # the benchmark process is gone
            return
        if not samples:
            return
        conn.send(reference_time(samples))


class PairedReference:
    """Times the reference loop on two cores at once.

    For work spread over processes: one copy runs here, one in a helper
    process, and the measurement is the mean of both times.
    """

    def __init__(self) -> None:
        # Fork, not spawn: spawn starts multiprocessing's resource
        # tracker, a process that outlives the benchmark.  Created before
        # any daemon thread runs, so the fork copies no held lock.
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=_helper, args=(child,))
        self._process.start()
        child.close()
        self(samples=1)  # both copies are running from here on

    def __call__(self, samples: int = 1) -> float:
        self._conn.send(samples)
        here = reference_time(samples)
        return (here + self._conn.recv()) / 2.0

    def close(self) -> None:
        """Stop the helper process and wait for it."""
        try:
            self._conn.send(0)
        except OSError:
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._conn.close()


class Scaler:
    """Scale factors for consecutive stretches of measured work.

    ``mark()`` takes one reference measurement (by default the loop
    timed once here); a stretch is scaled by the nominal time over the
    mean of the last ``WINDOW`` measurements, the ones bounding it
    included, which damps one-off outliers.
    """

    def __init__(self, measure=reference_time) -> None:
        self._measure = measure
        first = measure(samples=WINDOW)
        self._recent = deque([first] * WINDOW, maxlen=WINDOW)

    def mark(self) -> float:
        """Close the current stretch and return its scale factor."""
        self._recent.append(self._measure())
        return NOMINAL_S / statistics.fmean(self._recent)
