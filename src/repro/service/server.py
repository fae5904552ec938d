"""The ``repro serve`` daemon: one warm pool behind a socket API.

Every front-end so far pays process start-up per invocation: import
the package, fork workers, populate caches, exit.  The daemon keeps
all of that warm.  :class:`ReproServer` is an asyncio TCP server
speaking the NDJSON protocol of :mod:`repro.service.protocol`; work
requests (``optimize`` / ``analyze``) are multiplexed onto a
:class:`~repro.batch.supervisor.WorkerPool` of long-lived worker
processes, so repeat clients reuse hot analysis managers and the
shared on-disk solution store.

The layering per request:

1. **Parse** — the inbound line goes through
   :func:`~repro.service.protocol.parse_request`; malformed lines come
   back as ``error`` records and never touch a worker.  A line longer
   than :data:`MAX_LINE_BYTES` gets an ``error`` record too, and its
   connection is closed.
2. **Admission** — at most ``jobs + queue_limit`` work requests may be
   in flight; past that the daemon answers immediately with a
   ``rejected`` record (explicit back-pressure beats silent queueing).
3. **Response cache** — deterministic requests are keyed by a SHA-256
   digest of their payload.  A hit (memory LRU first, then the
   optional disk tier shared with the solution store) is answered
   without dispatching to a worker at all; the ``serve.cache.hit`` /
   ``serve.pool.dispatch`` counters make the fast path observable.
4. **Dispatch** — a miss runs on the next idle pool worker under the
   same two-tier deadline as batch mode: the per-request ``timeout``
   arms the in-worker SIGALRM, and the pool SIGKILLs the worker at
   ``timeout + grace`` if it is stuck in an uninterruptible C call.
   Either way the client gets a structured ``result`` record (status
   ``ok`` / ``error`` / ``timeout``) and the daemon keeps serving —
   a hung request costs one worker process, never the service.

Control operations answer inline: ``stats`` returns a live snapshot
of the daemon's private :class:`~repro.obs.trace.Tracer` counters
plus pool supervision and cache state, ``ping`` answers ``pong``, and
``shutdown`` acknowledges with ``bye`` and stops the server.

The server owns a *private* tracer — it never installs one globally,
so embedding a server (tests run it with :meth:`start_in_thread`)
cannot perturb the host process's tracing.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Set, Tuple

from repro.batch.driver import BatchConfig, WorkItem
from repro.batch.supervisor import WorkerPool
from repro.obs.store import JSONRecord, SolutionStore
from repro.obs.trace import Tracer, snapshot
from repro.service import protocol
from repro.service.protocol import ProtocolError, Request

#: Trace counters the daemon maintains (exposed by the ``stats`` op).
COUNTER_REQUESTS = "serve.request.total"
COUNTER_INVALID = "serve.request.invalid"
COUNTER_REJECTED = "serve.request.rejected"
COUNTER_CACHE_HIT = "serve.cache.hit"
COUNTER_CACHE_MISS = "serve.cache.miss"
COUNTER_CACHE_STORE_HIT = "serve.cache.store_hit"
COUNTER_DISPATCH = "serve.pool.dispatch"
COUNTER_OVERSIZED = "serve.error.oversized"

#: The longest request line the daemon reads (the asyncio stream
#: default).  A longer line is answered with an ``error`` record and
#: the connection is closed.
MAX_LINE_BYTES = 1 << 16

#: The store key namespace response-cache entries live under.
_RESPONSE_KEY = "serve-response"


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for :class:`ReproServer`.

    Attributes:
        host: bind address (loopback by default — the protocol has no
            authentication; front it with something that does before
            exposing it).
        port: bind port; 0 picks a free one (the chosen port is in the
            readiness record and :attr:`ReproServer.port`).
        jobs: pool worker processes serving work requests.
        timeout: default per-request wall-clock budget in seconds
            (None: unlimited); a request's own ``timeout`` field
            overrides it.
        grace: extra seconds past the budget before the pool SIGKILLs
            a stuck worker (the two-tier deadline of batch mode).
        queue_limit: work requests allowed to wait for a worker beyond
            the ``jobs`` already running; past ``jobs + queue_limit``
            in flight, new work is answered with ``rejected``.
        cache_size: response-cache entries kept in memory (LRU);
            0 disables response caching entirely.
        store_path: directory of a shared on-disk
            :class:`~repro.obs.store.SolutionStore`.  Doubles as the
            workers' persistent dataflow-solution tier *and* the
            response cache's disk tier, so warm answers survive
            daemon restarts (None: memory only).
        cache: whether worker analysis managers memoize.
        max_tasks_per_worker: recycle pool workers after this many
            requests (None: workers live as long as the daemon).
        allow_call: honour requests with ``kind="call"`` (arbitrary
            ``module:function`` loaders — fault injection and tests);
            off by default, and such requests are never cached.
    """

    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 2
    timeout: Optional[float] = None
    grace: float = 1.0
    queue_limit: int = 8
    cache_size: int = 256
    store_path: Optional[str] = None
    cache: bool = True
    max_tasks_per_worker: Optional[int] = None
    allow_call: bool = False


class ReproServer:
    """The long-lived optimization daemon.

    Lifecycle: construct with a :class:`ServeConfig`, then either
    :meth:`run` (blocks; what ``repro serve`` does) or
    :meth:`start_in_thread` (returns once listening; what tests do),
    and :meth:`stop` from any thread.  ``on_listening`` is called with
    ``(host, port)`` once the socket is bound — the CLI prints the
    readiness record from it.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        #: The daemon's private tracer; never installed globally.
        self.tracer = Tracer()
        #: Supervision counters the worker pool accumulates.
        self.pool_stats: Dict[str, int] = {}
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.on_listening = None
        self._pool: Optional[WorkerPool] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._store: Optional[SolutionStore] = None
        self._memcache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._tasks: Set["asyncio.Task"] = set()
        self._clients: Set["asyncio.Task"] = set()
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._active = 0
        self._sequence = 0
        self._started_at = 0.0

    # -- lifecycle ------------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`stop` or a ``shutdown`` request (blocks)."""
        asyncio.run(self._serve())

    def start_in_thread(self) -> Tuple[str, int]:
        """Run the daemon on a background thread; returns ``(host, port)``
        once it is accepting connections."""
        self._thread = threading.Thread(
            target=self.run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        return self.host, self.port

    def stop(self, join: bool = True) -> None:
        """Stop the daemon from any thread.  Idempotent."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:  # loop torn down between check and call
                pass
        if join and self._thread is not None:
            self._thread.join()
            self._thread = None

    def _signal_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _base_config(self) -> BatchConfig:
        config = self.config
        return BatchConfig(
            timeout=config.timeout,
            grace=config.grace,
            cache=config.cache,
            store_path=config.store_path,
            max_tasks_per_worker=config.max_tasks_per_worker,
        )

    async def _serve(self) -> None:
        config = self.config
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_at = time.monotonic()
        slots = config.jobs + max(0, config.queue_limit)
        self._pool = WorkerPool(
            self._base_config(), config.jobs, self.pool_stats
        )
        self._executor = ThreadPoolExecutor(
            max_workers=slots, thread_name_prefix="repro-serve-dispatch"
        )
        if config.store_path:
            self._store = SolutionStore(config.store_path)
        server = await asyncio.start_server(
            self._handle_client,
            config.host,
            config.port,
            limit=MAX_LINE_BYTES,
        )
        try:
            address = server.sockets[0].getsockname()
            self.host, self.port = address[0], address[1]
            if self.on_listening is not None:
                self.on_listening(self.host, self.port)
            self._ready.set()
            await self._stop_event.wait()
        finally:
            self._ready.set()  # never leave start_in_thread hanging
            server.close()
            # End open connections before the loop does: a handler the
            # loop cancels at exit makes asyncio log a traceback.
            clients = list(self._clients)
            for task in clients:
                task.cancel()
            if clients:
                await asyncio.gather(*clients, return_exceptions=True)
            await server.wait_closed()
            # Kill busy workers first: that unblocks dispatcher threads
            # (they observe the dead pipe and return a lost record), so
            # in-flight tasks finish and the executor can drain.
            self._pool.close()
            if self._tasks:
                await asyncio.gather(*list(self._tasks),
                                     return_exceptions=True)
            self._executor.shutdown(wait=True)

    # -- connection handling --------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            while not self._stop_event.is_set():
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran MAX_LINE_BYTES
                    self.tracer.count(COUNTER_OVERSIZED)
                    await self._send(
                        writer,
                        protocol.error_record(
                            None,
                            f"request line exceeds the {MAX_LINE_BYTES}"
                            "-byte limit; closing the connection",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(line, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # _serve cancels open connections when the daemon stops.
            # Ending normally then keeps asyncio's wrapper around this
            # callback from logging the cancellation as an error.
            if not self._stop_event.is_set():
                raise
        finally:
            self._clients.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_line(self, line: bytes, writer) -> None:
        self.tracer.count(COUNTER_REQUESTS)
        request_id: Optional[str] = None
        try:
            document = protocol.decode(line)
            raw_id = document.get("id")
            if isinstance(raw_id, (str, int)):
                request_id = str(raw_id)
            request = protocol.parse_request(document)
        except ProtocolError as exc:
            self.tracer.count(COUNTER_INVALID)
            await self._send(writer, protocol.error_record(request_id,
                                                           str(exc)))
            return
        self.tracer.count(f"serve.request.{request.op}")
        if request.op == protocol.OP_PING:
            await self._send(writer, protocol.pong_record(request.id))
        elif request.op == protocol.OP_STATS:
            await self._send(
                writer, protocol.stats_record(request.id, self._stats())
            )
        elif request.op == protocol.OP_SHUTDOWN:
            await self._send(writer, protocol.bye_record(request.id))
            self._stop_event.set()
        else:
            await self._admit(request, writer)

    async def _admit(self, request: Request, writer) -> None:
        config = self.config
        if request.kind == "call" and not config.allow_call:
            self.tracer.count(COUNTER_INVALID)
            await self._send(
                writer,
                protocol.error_record(
                    request.id,
                    "kind 'call' is disabled on this server "
                    "(start with --allow-call)",
                ),
            )
            return
        limit = config.jobs + max(0, config.queue_limit)
        if self._active >= limit:
            self.tracer.count(COUNTER_REJECTED)
            await self._send(
                writer,
                protocol.rejected_record(
                    request.id,
                    f"queue full: {self._active} requests in flight "
                    f"(limit {limit})",
                    queue_depth=max(0, self._active - config.jobs),
                    queue_limit=config.queue_limit,
                ),
            )
            return
        self._active += 1
        self.tracer.gauge("serve.active", self._active)
        task = asyncio.ensure_future(self._run_work(request, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- work requests ---------------------------------------------------

    async def _run_work(self, request: Request, writer) -> None:
        try:
            key = self._cache_key(request)
            if key is not None:
                payload = self._cache_load(key)
                if payload is not None:
                    self.tracer.count(COUNTER_CACHE_HIT)
                    await self._send(
                        writer,
                        protocol.cached_result_record(request.id, payload),
                    )
                    return
                self.tracer.count(COUNTER_CACHE_MISS)
            record = await self._dispatch(request)
            if record.ok and key is not None:
                self._cache_save(key, record)
            self.tracer.count(f"serve.result.{record.status}")
            await self._send(
                writer, protocol.result_record(request.id, record)
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; the result is simply dropped
        finally:
            self._active -= 1
            self.tracer.gauge("serve.active", self._active)

    async def _dispatch(self, request: Request):
        self._sequence += 1
        index = self._sequence
        item = WorkItem(
            name=request.name or f"req{index}",
            kind=request.kind,
            payload=request.source,
        )
        config = self._base_config()
        config = replace(
            config,
            pass_=request.pass_,
            pipeline=request.pipeline,
            keep_ir=request.keep_ir,
            analyze=request.op == protocol.OP_ANALYZE,
        )
        if request.timeout is not None:
            config = replace(config, timeout=request.timeout)
        self.tracer.count(COUNTER_DISPATCH)
        return await self._loop.run_in_executor(
            self._executor,
            functools.partial(
                self._pool.run, item, config=config, index=index
            ),
        )

    # -- the response cache ---------------------------------------------

    def _cache_key(self, request: Request) -> Optional[str]:
        """The response-cache digest, or None for uncacheable requests."""
        if self.config.cache_size <= 0 or request.kind == "call":
            return None
        core = {
            "op": request.op,
            "kind": request.kind,
            "source": request.source,
            "pass": request.pass_,
            "pipeline": request.pipeline,
            "keep_ir": request.keep_ir,
        }
        body = json.dumps(core, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def _cache_load(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._memcache.get(key)
        if payload is not None:
            self._memcache.move_to_end(key)
            return payload
        if self._store is not None:
            entry = self._store.load(key, _RESPONSE_KEY)
            if isinstance(entry, JSONRecord):
                self.tracer.count(COUNTER_CACHE_STORE_HIT)
                self._cache_insert(key, entry.payload)
                return entry.payload
        return None

    def _cache_save(self, key: str, record) -> None:
        payload = record.to_dict()
        payload.pop("index", None)  # the sequence number is not content
        self._cache_insert(key, payload)
        if self._store is not None:
            self._store.save(key, _RESPONSE_KEY, JSONRecord(payload))

    def _cache_insert(self, key: str, payload: Dict[str, Any]) -> None:
        self._memcache[key] = payload
        self._memcache.move_to_end(key)
        while len(self._memcache) > self.config.cache_size:
            self._memcache.popitem(last=False)

    # -- stats -----------------------------------------------------------

    def _stats(self) -> Dict[str, Any]:
        config = self.config
        live = snapshot(self.tracer)
        stats: Dict[str, Any] = {
            "protocol": protocol.PROTOCOL,
            "version": protocol.PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "jobs": config.jobs,
            "queue_limit": config.queue_limit,
            "active": self._active,
            "idle_workers": self._pool.idle if self._pool else 0,
            "counters": live["counters"],
            "gauges": live["gauges"],
            "supervisor": dict(self.pool_stats),
            "cache": {
                "memory_entries": len(self._memcache),
                "memory_limit": config.cache_size,
            },
        }
        if self._store is not None:
            stats["cache"]["store"] = self._store.stats()
        return stats

    # -- plumbing --------------------------------------------------------

    async def _send(self, writer, record: Dict[str, Any]) -> None:
        writer.write(protocol.encode(record))
        await writer.drain()
