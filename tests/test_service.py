"""Tests for the repro serve daemon and the request-mode worker pool.

Servers run in-process on a background thread (never installing a
global tracer), with real worker processes underneath — so every test
asserts the daemon leaves no children behind.
"""

import logging
import multiprocessing
import socket
import threading
import time

import pytest

from repro.batch.driver import BatchConfig, WorkItem
from repro.batch.supervisor import WorkerPool
from repro.ir.serialize import cfg_to_json
from repro.lang import compile_program
from repro.service import ReproServer, Request, ServeClient, ServeConfig
from repro.service import protocol
from repro.service.server import MAX_LINE_BYTES

SOURCE = "x = a + b; if (p) { y = a + b; } else { y = 0; } z = a + b;"


def _wait_for_no_children(timeout=8.0):
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    return multiprocessing.active_children()


@pytest.fixture
def serve():
    """Start servers on demand; stop them (and assert no orphans) after."""
    servers = []

    def start(**kwargs):
        server = ReproServer(ServeConfig(**kwargs))
        host, port = server.start_in_thread()
        servers.append(server)
        return server, host, port

    yield start
    for server in servers:
        server.stop()
    assert _wait_for_no_children() == []


class TestServeBasics:
    def test_optimize_roundtrip(self, serve):
        _, host, port = serve(jobs=1)
        with ServeClient(host, port, timeout=30) as client:
            record = client.optimize(SOURCE)
        assert record["type"] == "result"
        assert record["status"] == "ok"
        assert record["cached"] is False
        assert record["fingerprint"]
        assert record["static_before"] > record["static_after"]

    def test_analyze_op(self, serve):
        _, host, port = serve(jobs=1)
        with ServeClient(host, port, timeout=30) as client:
            record = client.analyze(SOURCE)
        assert record["status"] == "ok"
        placements = record["analysis"]["placements"]
        assert placements["a + b"]["delete_blocks"]

    def test_json_kind(self, serve):
        _, host, port = serve(jobs=1)
        payload = cfg_to_json(compile_program(SOURCE))
        with ServeClient(host, port, timeout=30) as client:
            record = client.optimize(payload, kind="json")
        assert record["status"] == "ok"

    def test_bad_program_is_error_record(self, serve):
        _, host, port = serve(jobs=1)
        with ServeClient(host, port, timeout=30) as client:
            record = client.optimize("x = = ;")
            # The daemon answered with a structured record and lives on.
            assert record["status"] == "error"
            assert client.ping()["type"] == "pong"

    def test_stats_shape(self, serve):
        _, host, port = serve(jobs=1)
        with ServeClient(host, port, timeout=30) as client:
            client.optimize(SOURCE)
            stats = client.stats()
        assert stats["protocol"] == protocol.PROTOCOL
        assert stats["version"] == protocol.PROTOCOL_VERSION
        assert stats["jobs"] == 1
        assert stats["counters"]["serve.request.optimize"] == 1
        assert stats["counters"]["serve.result.ok"] == 1
        assert "supervisor" in stats
        assert stats["cache"]["memory_entries"] == 1

    def test_shutdown_request_stops_the_daemon(self, serve):
        server, host, port = serve(jobs=1)
        with ServeClient(host, port, timeout=30) as client:
            assert client.shutdown()["type"] == "bye"
        deadline = time.monotonic() + 8.0
        while server._thread.is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not server._thread.is_alive()


class TestServeCache:
    def test_warm_repeat_skips_the_pool(self, serve):
        _, host, port = serve(jobs=1)
        with ServeClient(host, port, timeout=30) as client:
            cold = client.optimize(SOURCE)
            warm = client.optimize(SOURCE)
            counters = client.stats()["counters"]
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["fingerprint"] == cold["fingerprint"]
        # The fast path is counter-pinned: one miss, one hit, and the
        # pool dispatched exactly once — the repeat never saw a worker.
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.cache.hit"] == 1
        assert counters["serve.pool.dispatch"] == 1

    def test_cache_disabled_dispatches_every_time(self, serve):
        _, host, port = serve(jobs=1, cache_size=0)
        with ServeClient(host, port, timeout=30) as client:
            client.optimize(SOURCE)
            repeat = client.optimize(SOURCE)
            counters = client.stats()["counters"]
        assert repeat["cached"] is False
        assert counters["serve.pool.dispatch"] == 2

    def test_distinct_requests_do_not_share_entries(self, serve):
        _, host, port = serve(jobs=1)
        with ServeClient(host, port, timeout=30) as client:
            client.optimize(SOURCE)
            other = client.optimize(SOURCE, pipeline=True)
            counters = client.stats()["counters"]
        assert other["cached"] is False
        assert counters["serve.pool.dispatch"] == 2

    def test_disk_tier_survives_a_restart(self, serve, tmp_path):
        store = str(tmp_path / "store")
        server1, host, port = serve(jobs=1, store_path=store)
        with ServeClient(host, port, timeout=30) as client:
            assert client.optimize(SOURCE)["status"] == "ok"
        server1.stop()

        _, host, port = serve(jobs=1, store_path=store)
        with ServeClient(host, port, timeout=30) as client:
            warm = client.optimize(SOURCE)
            counters = client.stats()["counters"]
        assert warm["cached"] is True
        assert counters["serve.cache.store_hit"] == 1
        assert counters.get("serve.pool.dispatch", 0) == 0


class TestServeConcurrency:
    def test_concurrent_clients(self, serve):
        _, host, port = serve(jobs=2)
        sources = [
            f"x = a + b; y = a + b; z = {i};" for i in range(6)
        ]
        results = [None] * len(sources)

        def worker(i):
            with ServeClient(host, port, timeout=60) as client:
                results[i] = client.optimize(sources[i], name=f"p{i}")

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(sources))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r is not None and r["status"] == "ok" for r in results)
        fingerprints = {r["fingerprint"] for r in results}
        assert len(fingerprints) == len(sources)  # distinct programs

    def test_admission_rejects_past_the_queue_limit(self, serve):
        _, host, port = serve(
            jobs=1, queue_limit=0, allow_call=True, grace=1.0
        )
        blocker = ServeClient(host, port, timeout=30)
        try:
            # Occupy the only worker (without reading the response yet).
            blocker._sock.sendall(
                protocol.encode(
                    Request(
                        op="optimize",
                        id="slow",
                        source="repro.batch.testing:sleep_forever",
                        kind="call",
                        timeout=2.0,
                    ).to_dict()
                )
            )
            with ServeClient(host, port, timeout=30) as probe:
                deadline = time.monotonic() + 5.0
                while probe.stats()["active"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                rejected = probe.optimize(SOURCE)
                assert rejected["type"] == "rejected"
                assert rejected["queue_limit"] == 0
                assert "queue full" in rejected["reason"]
                assert probe.stats()["counters"][
                    "serve.request.rejected"
                ] == 1
            # The blocker's request still completes (soft timeout).
            slow = blocker.call(Request(op="ping"))
            assert slow["type"] in ("pong", "result")
        finally:
            blocker.close()


class TestServeDeadlines:
    def test_hard_kill_and_daemon_survives(self, serve):
        server, host, port = serve(jobs=1, allow_call=True, grace=0.4)
        with ServeClient(host, port, timeout=30) as client:
            record = client.call(
                Request(
                    op="optimize",
                    source="repro.batch.testing:busy_loop_c",
                    kind="call",
                    timeout=0.3,
                )
            )
            assert record["status"] == "timeout"
            assert "killed" in record["message"]
            # The worker was SIGKILLed and respawned; the daemon keeps
            # serving on a fresh process.
            after = client.optimize(SOURCE)
            assert after["status"] == "ok"
            stats = client.stats()
        assert stats["supervisor"]["batch.item.killed"] == 1
        assert stats["supervisor"]["batch.worker.respawn"] == 1
        assert stats["counters"]["serve.result.timeout"] == 1

    def test_soft_timeout_keeps_the_worker(self, serve):
        _, host, port = serve(jobs=1, allow_call=True)
        with ServeClient(host, port, timeout=30) as client:
            record = client.call(
                Request(
                    op="optimize",
                    source="repro.batch.testing:sleep_forever",
                    kind="call",
                    timeout=0.3,
                )
            )
            assert record["status"] == "timeout"
            assert "exceeded" in record["message"]
            stats = client.stats()
        # SIGALRM fired inside the worker: no kill, no respawn.
        assert stats["supervisor"].get("batch.item.killed", 0) == 0


class TestServeProtocolEdges:
    def test_malformed_line_keeps_the_connection(self, serve):
        _, host, port = serve(jobs=1)
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            record = protocol.decode(handle.readline())
            assert record["type"] == "error"
            assert "bad JSON" in record["message"]
            sock.sendall(protocol.encode({"op": "ping", "id": "p"}))
            assert protocol.decode(handle.readline())["type"] == "pong"

    def test_oversized_line_is_an_error_record(self, serve):
        server, host, port = serve(jobs=1)
        line = b'{"op": "ping", "pad": "' + b"x" * 120_000 + b'"}\n'
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rb")
            sock.sendall(line)
            record = protocol.decode(handle.readline())
            assert handle.readline() == b""  # then the daemon hangs up
        assert record["type"] == "error"
        assert record["id"] is None
        assert str(MAX_LINE_BYTES) in record["message"]
        # The daemon keeps serving the next client.
        with ServeClient(host, port, timeout=30) as client:
            assert client.ping()["type"] == "pong"
            counters = client.stats()["counters"]
        assert counters["serve.error.oversized"] == 1

    def test_unknown_op_is_an_error_record(self, serve):
        _, host, port = serve(jobs=1)
        with ServeClient(host, port, timeout=30) as client:
            record = client.call(Request(op="transmogrify"))
        assert record["type"] == "error"
        assert "unknown op" in record["message"]

    def test_call_kind_is_gated(self, serve):
        _, host, port = serve(jobs=1)  # no allow_call
        with ServeClient(host, port, timeout=30) as client:
            record = client.call(
                Request(
                    op="optimize",
                    source="repro.batch.testing:ok_cfg",
                    kind="call",
                )
            )
        assert record["type"] == "error"
        assert "allow-call" in record["message"]


class TestServeShutdown:
    def test_stop_after_disconnect_logs_no_traceback(self, caplog):
        # start, one optimize, close the socket, stop() at once: the
        # open handler used to be cancelled by the loop's teardown,
        # which asyncio logs as an unhandled CancelledError.
        caplog.set_level(logging.ERROR, logger="asyncio")
        for _ in range(10):
            server = ReproServer(ServeConfig(jobs=1))
            host, port = server.start_in_thread()
            try:
                with ServeClient(host, port, timeout=30) as client:
                    assert client.optimize(SOURCE)["status"] == "ok"
            finally:
                server.stop()
        errors = [
            record
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []
        assert _wait_for_no_children() == []


class TestWorkerPool:
    def test_run_one_item(self):
        pool = WorkerPool(BatchConfig(), size=1)
        try:
            item = WorkItem(
                "p", "json", cfg_to_json(compile_program(SOURCE))
            )
            record = pool.run(item)
            assert record.ok
            assert record.fingerprint
        finally:
            pool.close()
        assert _wait_for_no_children() == []

    def test_hard_deadline_respawns(self):
        stats = {}
        pool = WorkerPool(
            BatchConfig(timeout=0.2, grace=0.2), size=1, stats=stats
        )
        try:
            record = pool.run(
                WorkItem("hang", "call", "repro.batch.testing:busy_loop_c")
            )
            assert record.status == "timeout"
            assert stats["batch.item.killed"] == 1
            assert stats["batch.worker.respawn"] == 1
            # The replacement worker serves the next request.
            ok = pool.run(
                WorkItem(
                    "p", "json", cfg_to_json(compile_program(SOURCE))
                )
            )
            assert ok.ok
        finally:
            pool.close()
        assert _wait_for_no_children() == []

    def test_close_is_idempotent(self):
        pool = WorkerPool(BatchConfig(), size=2)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(
                WorkItem(
                    "p", "json", cfg_to_json(compile_program(SOURCE))
                )
            )
        assert _wait_for_no_children() == []
