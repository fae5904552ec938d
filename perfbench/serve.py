"""The ``serve-repeat`` workload: the daemon under a seeded request mix.

Each round starts a fresh in-process ``ReproServer`` whose pool of
``JOBS`` workers shares a fresh on-disk ``SolutionStore``, warms it up,
then drives it through one ``ServeClient`` connection in a closed loop
over one seeded request sequence:

* a *fresh* request per program, which misses every cache;
* an *exact repeat*, byte-identical, answered by the response cache
  without reaching a worker;
* a *re-spelled repeat*: the same graph under other payload bytes (the
  ``json`` kind, or the source with a trailing comment), which misses
  the response cache and hits the worker memo or the shared store.

A repeat is sent only after its original's reply has arrived.  One
connection drives the pool: with two workers and the daemon's own
threads on two cores, a second connection made the runs contend for
the cores, and their spread doubled.  The pool hands work to idle
workers in turn, so re-spelled repeats reach both the worker that holds
the memo entry and the other one, which reads the shared store.

Every ``SEGMENT`` requests the calibration loop of ``calibrate.py`` is
timed on both cores at once (here and in a helper process), because
the daemon's work spreads over processes; timed on this process alone
it widened the run-to-run spread instead of narrowing it.  Worker
numbers come from the reply records and the ``stats`` op; the host
cannot trace inside worker processes.
"""

from __future__ import annotations

import logging
import os
import random
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List

from calibrate import PairedReference, Scaler, scaled
from gate import Gate
from inputs import Item, mint

#: Pool workers: never more than the cores.
JOBS = max(1, min(2, os.cpu_count() or 1))
#: Socket timeout of a client round-trip, in seconds.
CLIENT_TIMEOUT = 60.0
#: Seconds between closing the client and stopping the daemon.  The
#: daemon finishes its side of the close on its own loop, and stopping
#: it before that logs a CancelledError traceback; the daemon exposes
#: no way to observe that the close is done.
CLOSE_GRACE = 0.2
#: A repeat lands this many program slots after its original, so cache
#: hits interleave with other programs' requests.
GAP = (2, 12)
#: Requests between two calibration timings (see calibrate.py).
SEGMENT = 32

FRESH, REPEAT, RESPELLED = "fresh", "repeat", "respelled"


@dataclass(frozen=True)
class Request:
    name: str
    role: str
    payload: str
    kind: str


def build_sequence(
    items: List[Item], json_payloads: List[str], rng: random.Random
) -> List[Request]:
    """One round's requests: a fresh one and two later repeats per program.

    Each repeat comes after its fresh request, so on the one closed-loop
    connection the original's reply has arrived before it is sent.
    """
    order = list(range(len(items)))
    rng.shuffle(order)
    slots = []
    for position, program in enumerate(order):
        item = items[program]
        slots.append((3 * position, FRESH, program, item.source, "source"))
        slots.append(
            (3 * (position + rng.randint(*GAP)) + 1, REPEAT, program,
             item.source, "source")
        )
        if program % 2:
            respelled = (json_payloads[program], "json")
        else:
            respelled = (item.source + "\n# re-spelled\n", "source")
        slots.append(
            (3 * (position + rng.randint(*GAP)) + 2, RESPELLED, program)
            + respelled
        )
    slots.sort()
    return [
        Request(items[program].name, role, payload, kind)
        for _, role, program, payload, kind in slots
    ]


class _ErrorLog(logging.Handler):
    """Counts error records the daemon logs; they still reach stderr."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.messages: List[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


class _Round:
    """One daemon lifetime: start, warm up, drive, stop."""

    def __init__(self, store_path: str) -> None:
        from repro.service.client import ServeClient
        from repro.service.server import ReproServer, ServeConfig

        began = time.perf_counter()
        config = ServeConfig(jobs=JOBS, store_path=store_path)
        self.server = ReproServer(config)
        host, port = self.server.start_in_thread()
        self.client = None
        try:
            self.client = ServeClient(host, port, timeout=CLIENT_TIMEOUT)
            # Warm-up: one request per pool worker (they take work in
            # turn), so each has served before the first timed item.
            warm = [
                Request(f"warm-{k}", FRESH, f"w{k} = a + b; v{k} = a + b;",
                        "source")
                for k in range(JOBS)
            ]
            for request, reply, _, error, _ in self.drive(warm)[0]:
                problem = error or _reply_problem(reply)
                if problem:
                    raise RuntimeError(f"daemon warm-up failed: {problem}")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - began

    def drive(self, requests: List[Request], scaler=None):
        """Send *requests* one at a time, each after the last reply.

        With a *scaler*, the calibration loop is timed after every
        ``SEGMENT`` requests.  Returns ``(replies, wall_s,
        scaled_wall_s)``; each reply is ``(request, record, latency,
        error, scale)``.  Calibration time is outside both wall times.
        """
        replies: List = []
        wall_s = scaled_wall_s = 0.0
        for first in range(0, len(requests), SEGMENT):
            answered = []
            began = time.perf_counter()
            for request in requests[first:first + SEGMENT]:
                start = time.perf_counter()
                try:
                    reply = self.client.optimize(
                        request.payload,
                        kind=request.kind,
                        keep_ir=True,
                        name=request.name,
                    )
                    error = None
                except Exception as exc:  # recorded as a failed request
                    reply, error = None, f"{type(exc).__name__}: {exc}"
                answered.append(
                    (request, reply, time.perf_counter() - start, error)
                )
            elapsed = time.perf_counter() - began
            scale = scaler.mark() if scaler is not None else 1.0
            wall_s += elapsed
            scaled_wall_s += elapsed * scale
            replies.extend(reply + (scale,) for reply in answered)
        return replies, wall_s, scaled_wall_s

    def close(self) -> Dict[str, Any]:
        """Read the daemon's stats, close the client, then stop it."""
        try:
            stats = self.client.stats() if self.client else {}
        finally:
            if self.client is not None:
                self.client.close()
            time.sleep(CLOSE_GRACE)
            self.server.stop()
        return stats


class _Tally:
    """Reply-derived numbers summed over rounds of one kind."""

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.rejected = 0
        self.respawns = 0
        self.hit_ms = 0.0
        self.worker_ms = 0.0
        self.wait_ms = 0.0
        self.wall_s = 0.0
        self.cache: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)

    def add(self, replies, wall_s: float, stats) -> None:
        self.wall_s += wall_s
        self.respawns += stats.get("supervisor", {}).get(
            "batch.worker.respawn", 0
        )
        for request, reply, latency, _, _ in replies:
            ms = latency * 1000.0
            self.requests += 1
            if reply is None:
                continue
            if reply.get("type") == "rejected":
                self.rejected += 1
                continue
            if reply.get("cached"):
                # A cached reply repeats its original's worker fields.
                self.hits += 1
                self.hit_ms += ms
                continue
            duration = reply.get("duration_ms", 0.0)
            self.worker_ms += duration
            self.wait_ms += ms - duration
            for key, n in reply.get("cache", {}).items():
                self.cache[key] += n
            for key, n in reply.get("counters", {}).items():
                self.counters[key] += n

    def layers(self, untraced: "_Tally") -> Dict[str, float]:
        n = max(self.requests, 1)
        # Traced over untraced round wall time, per request.
        overhead = (self.wall_s / n) / (
            untraced.wall_s / max(untraced.requests, 1)
        )
        cache = self.cache
        lookups = cache["hits"] + cache["disk_hits"] + cache["misses"]
        wall_ms = self.wall_s * 1000.0
        # Failed round-trips and client-side work fall in unattributed.
        attributed = self.hit_ms + self.wait_ms + self.worker_ms
        return {
            "service.cache_hit_ratio": self.hits / n,
            "service.hit_ms": self.hit_ms / n,
            "service.wait_ms": self.wait_ms / n,
            "batch.worker_ms": self.worker_ms / n,
            "unattributed_ms": (wall_ms - attributed) / n,
            "ledger.traced_wall_ms": wall_ms / n,
            "trace_overhead_ratio": overhead,
            "service.rejected": float(self.rejected),
            "batch.respawns": float(self.respawns),
            "obs.memo_hit_ratio":
                (cache["hits"] + cache["disk_hits"]) / max(lookups, 1),
            "obs.memo_misses": cache["misses"] / n,
            "obs.store_disk_hits": cache["disk_hits"] / n,
            "obs.store_disk_writes": cache["disk_writes"] / n,
            "obs.fingerprint_full_per_item":
                self.counters["fingerprint.full"] / n,
            "obs.fingerprint_incr_per_item":
                self.counters["fingerprint.incr"] / n,
            "dataflow.liveness_fullsolves_per_item":
                self.counters["dataflow.incr.fullsolve"] / n,
        }


def run(
    workload: str,
    spec: Dict[str, Any],
    deck: Dict[str, Any],
    seed: int,
    seconds: float,
    traced: bool,
    workdir: str,
) -> Dict[str, Any]:
    from repro.api import load_cfg
    from repro.ir.serialize import cfg_to_json
    from repro.obs import trace

    mint_s, raw_mint_s = [], []
    for _ in range(3):
        began = time.perf_counter()
        minted = mint(spec)
        raw_mint_s.append(time.perf_counter() - began)
        mint_s.append(scaled(raw_mint_s[-1]))
    # A fresh request must be fresh: identical sources (two seeds can
    # mint the same small program) are sent once.
    items = list({item.source: item for item in reversed(minted)}.values())
    items.reverse()
    json_payloads = [
        cfg_to_json(load_cfg(item.source), indent=None) for item in items
    ]
    by_name = {item.name: item for item in items}

    errors = _ErrorLog()
    logging.getLogger("asyncio").addHandler(errors)
    rng = random.Random(seed)
    mint_median = sorted(mint_s)[len(mint_s) // 2]
    raw_mint_median = sorted(raw_mint_s)[len(raw_mint_s) // 2]
    setups: List[float] = []
    raw_setups: List[float] = []
    latencies: List[float] = []
    scales: List[float] = []
    scaled_wall_s = 0.0
    failures: List[str] = []
    #: item name -> distinct (fingerprint, ir) pairs its replies carried
    seen: Dict[str, set] = defaultdict(set)
    untraced, traced_tally = _Tally(), _Tally()
    host_counters: Dict[str, int] = defaultdict(int)
    attempted = 0
    measured = 0.0
    round_no = 0
    reference = PairedReference()
    try:
        scaler = Scaler(reference)
        # Trace runs alternate untraced and traced rounds, ending on a
        # traced one so both kinds see the same number of rounds.
        while measured < seconds or (traced and round_no % 2 == 1):
            store_path = os.path.join(workdir, f"store-{round_no}")
            tracing_round = traced and round_no % 2 == 1
            requests = build_sequence(items, json_payloads, rng)
            daemon = _Round(store_path)
            raw_setups.append(raw_mint_median + daemon.setup_s)
            setups.append(mint_median + daemon.setup_s * scaler.mark())
            if tracing_round:
                # Host-side counters of the in-process daemon (its
                # response store, the pool supervisor).
                trace.activate()
            try:
                replies, wall_s, scaled_s = daemon.drive(
                    requests, None if tracing_round else scaler
                )
            finally:
                if tracing_round:
                    for name, n in trace.deactivate().counters.items():
                        host_counters[name] += n
                stats = daemon.close()
            shutil.rmtree(store_path, ignore_errors=True)
            (traced_tally if tracing_round else untraced).add(
                replies, wall_s, stats
            )
            measured += wall_s
            round_no += 1
            attempted += len(replies)
            if not tracing_round:
                scaled_wall_s += scaled_s
            for request, reply, latency, error, scale in replies:
                if not tracing_round:
                    latencies.append(latency)
                    scales.append(scale)
                problem = error or _reply_problem(reply)
                if problem:
                    failures.append(
                        f"{workload} seed={seed} item={request.name} "
                        f"({request.role}): {problem}"
                    )
                else:
                    seen[request.name].add((reply["fingerprint"], reply["ir"]))
    finally:
        logging.getLogger("asyncio").removeHandler(errors)
        reference.close()
    failures.extend(
        f"{workload} seed={seed}: daemon logged an error: {message}"
        for message in errors.messages
    )

    gate = Gate(workload, seed, deck)
    failures.extend(_check_replies(seen, by_name, gate))
    failures.extend(gate.failures)
    result = {
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "latencies": latencies,
        "scales": scales,
        "wall_s": untraced.wall_s,
        "scaled_wall_s": scaled_wall_s,
        "attempted": attempted,
        "failures": failures,
        "gate": gate,
        "unchecked": len(items) - len(seen),
    }
    if traced:
        result["layers"] = traced_tally.layers(untraced)
        result["layer_samples"] = traced_tally.requests
        result["unmapped"] = {}
        result["host_counters"] = dict(host_counters)
        result["ledger_problems"] = (
            ["ledger over-covers the round wall time"]
            if result["layers"]["unattributed_ms"] < 0
            else []
        )
    return result


def _reply_problem(reply: Dict[str, Any]) -> str:
    if reply.get("type") != "result":
        return f"{reply.get('type')} reply: {reply.get('message', '')}"
    if reply.get("status") != "ok":
        return f"status {reply.get('status')}: {reply.get('message', '')}"
    if "ir" not in reply or "fingerprint" not in reply:
        return "reply lacks ir or fingerprint"
    return ""


def _check_replies(seen, by_name, gate: Gate) -> List[str]:
    """Each reply must match an in-process optimize of its program."""
    from repro.api import load_cfg, optimize_cfg
    from repro.obs.fingerprint import cfg_fingerprint
    from repro.obs.manager import AnalysisManager

    failures = []
    for name in sorted(seen):
        item = by_name[name]
        expected = optimize_cfg(
            load_cfg(item.source), "lcm", manager=AnalysisManager()
        ).fingerprint
        for fingerprint, ir in sorted(seen[name]):
            where = f"{gate.workload} seed={gate.seed} item={name}"
            if fingerprint != expected:
                failures.append(
                    f"{where}: reply fingerprint {fingerprint[:12]} != "
                    f"in-process {expected[:12]}"
                )
            optimized = load_cfg(ir, "json")
            if cfg_fingerprint(optimized) != fingerprint:
                failures.append(f"{where}: reply IR does not match its hash")
        gate.check(item, load_cfg(min(seen[name])[1], "json"))
    return failures
