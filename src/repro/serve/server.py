"""The long-lived asyncio verification server.

One :class:`VerificationServer` owns:

- an asyncio TCP server speaking the newline-delimited envelope protocol
  (:mod:`repro.serve.protocol`);
- a worker pool (:mod:`repro.serve.worker`) — by default up to
  ``workers`` forked processes (CPU-bound enumeration sidesteps the
  GIL), each on its own pipe that this server's event loop watches, so
  a job crosses the process boundary once each way with no executor
  threads in between; threads on request (``executor="thread"``, the
  cheap option for tests and tiny deployments).  Children fork lazily,
  on the first job that finds every running child busy; a child that
  dies is reaped and replaced;
- two tiers of stored results: a bounded in-memory tier of encoded
  result text (:data:`MEMORY_TIER_ENTRIES` entries, least recently used
  evicted) in front of the content-addressed on-disk
  :class:`~repro.serve.store.ResultStore`.  A task document seen before
  is answered without touching a worker, a backend or an oracle.

Request lifecycle: parse envelope → check budgets and timeout → hash the
embedded codec document into its store key → memory tier → disk store →
on a miss, hand the document and budgets to the pool under the
per-request timeout.  The worker runs
:func:`~repro.serve.worker.serve_document`: it decodes the document (a
malformed one is rejected *there*, and comes back as the typed
``malformed-document`` error document), infers the session, verifies
and returns the result's ``json.dumps(..., sort_keys=True)`` text.  The
loop puts that text in the memory tier, queues its record for the disk
and responds; it never decodes the task nor re-encodes the result.

A hit is never decoded: a key is only ever stored after a worker
decoded its document as a task, and the key folds in the codec
``schema_version``, so a malformed document cannot hit.  Both tiers
hold results as the ``json.dumps(result, sort_keys=True)`` text, and a
verify response is that text spliced into the envelope, so the daemon
neither re-encodes a stored result nor builds it as a dict.  A disk
hit fills the memory tier; a memory-tier entry expires under
``store_ttl`` by its record's ``stored_at`` stamp, like the disk record
it mirrors.

The store key folds in the server's semantic context (domain bounds,
entailment method, oracle caps) and the request budgets, so a
budget-limited ``Undecided`` can never masquerade as the answer to an
unlimited query.  Store misses are *single-flight*: concurrent requests
for the same key share one worker job and one store write instead of
racing duplicates; the shared job resolves once its result is in the
memory tier.

The disk write is off the response path: the record's bytes are encoded
on the event loop and handed to a :class:`~repro.serve.store.StoreWriter`
thread (started by the first write), which does the file system calls
while the response goes out.  A ``stats`` request first waits for the
queued writes, so its store counters cover every response sent before
it; a failed write is logged and counted, and its key is still answered
from the memory tier.

Shutdown is graceful: the listener closes first, open connections get to
finish their in-flight request, the worker pool finishes its running
jobs and drops the queued ones, its children see their pipes close and
are joined, the queued store writes land, and only then does
:meth:`VerificationServer.wait_stopped` return.  A tripped per-request
*timeout* answers that client immediately, but cannot preempt the
worker — the job runs to completion (bounded by any budgets it carries)
and its result is stored, so the retry is a store hit.
"""

import asyncio
import json
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..api.sharding import default_shards
from ..api.task import clock
from .protocol import (
    ProtocolError,
    error_document,
    error_response,
    ok_response,
    parse_budgets,
    parse_request,
    task_key,
)
from .store import ResultStore, StoreWriter, encode_record
from .worker import ProcessWorkers, ThreadWorkers, internal_message

#: Default TCP port (chosen to be unremarkable and unprivileged).
DEFAULT_PORT = 7341

#: Results the in-memory tier holds, as encoded text (about a kilobyte
#: each for small universes).
MEMORY_TIER_ENTRIES = 1024


@dataclass
class ServeConfig:
    """Everything a daemon instance is parameterized by.

    ``lo``/``hi``/``entailment``/``max_set_size`` fix the semantic
    context tasks are verified under (variables are inferred per task,
    like the one-shot CLI); they participate in the store key, so
    daemons with different contexts can safely share one store
    directory.  ``max_image_entries`` bounds each worker session's
    image+mask cache, while ``store_ttl`` / ``max_store_entries``
    govern the on-disk result tier (defaults: keep results forever,
    unbounded); ``store_ttl`` also expires the in-memory result tier.

    ``intra_task_workers`` turns on the partitioned mask-space scan
    (:mod:`repro.checker.parallel`) inside each worker session, so one
    store-missing request with a huge enumeration no longer pins the
    wall clock to a single core.  It composes with ``workers`` (the
    cross-request pool) and deliberately does *not* participate in the
    store key: parallel and serial scans produce byte-identical
    results.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    store_path: str = ".repro_store"
    workers: Optional[int] = None
    executor: str = "process"
    timeout: Optional[float] = 60.0
    lo: int = 0
    hi: int = 1
    entailment: str = "sat"
    max_set_size: Optional[int] = None
    max_image_entries: Optional[int] = 4096
    intra_task_workers: Optional[int] = None
    store_ttl: Optional[float] = None
    max_store_entries: Optional[int] = None
    quiet: bool = field(default=False)

    def __post_init__(self):
        if self.executor not in ("process", "thread"):
            raise ValueError(
                "executor must be 'process' or 'thread', got %r"
                % (self.executor,)
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                "timeout must be > 0 seconds or None, got %r" % (self.timeout,)
            )


class VerificationServer:
    """The asyncio server behind ``python -m repro serve``."""

    def __init__(self, config=None, store=None):
        self.config = config or ServeConfig()
        self.store = store or ResultStore(
            self.config.store_path,
            ttl=self.config.store_ttl,
            max_entries=self.config.max_store_entries,
        )
        self.address = None
        self.started_at = None
        self.requests = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.verified = 0
        self.errors = {}
        self._server = None
        self._workers = None
        self._inflight = {}
        # key -> (stored_at, result text), least recently used first
        self._tier = OrderedDict()
        self._store_writer = StoreWriter(self.store)
        self.coalesced = 0
        self._connections = set()
        self._draining = False
        self._stopped = None
        self._shutdown_started = False

    # -- lifecycle -------------------------------------------------------
    def _make_workers(self):
        config = self.config
        workers = config.workers
        if workers is None:
            workers = default_shards()
        if workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (workers,))
        settings = {
            "lo": config.lo,
            "hi": config.hi,
            "entailment": config.entailment,
            "max_set_size": config.max_set_size,
            "max_image_entries": config.max_image_entries,
            "intra_task_workers": config.intra_task_workers,
        }
        pool = ThreadWorkers if config.executor == "thread" else ProcessWorkers
        return pool(workers, settings)

    async def start(self):
        """Bind the listener and set up the (lazily forking) worker pool."""
        self._stopped = asyncio.Event()
        self._workers = self._make_workers()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self.started_at = clock()
        return self.address

    async def wait_stopped(self):
        """Block until a graceful shutdown completes."""
        await self._stopped.wait()

    async def shutdown(self):
        """Stop accepting, drain connections and workers, then stop."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # let open connections finish the request they are writing
        for _ in range(200):
            if not self._connections:
                break
            await asyncio.sleep(0.025)
        for writer in list(self._connections):
            writer.close()
        if self._workers is not None:
            # drain in-flight worker jobs, drop queued ones
            await self._workers.close()
        # let the drained jobs queue their records, then write them all
        await asyncio.gather(*list(self._inflight.values()), return_exceptions=True)
        await asyncio.get_event_loop().run_in_executor(None, self._store_writer.close)
        # Free the memory tier on this thread, which allocated it: freed
        # later from the thread that collects the server, its text stays
        # scattered over this thread's malloc arena, whose resident size
        # then grew with every daemon a process ran.
        self._tier.clear()
        self._stopped.set()

    # -- per-connection loop ---------------------------------------------
    async def _handle(self, reader, writer):
        self._connections.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                response = await self._respond(line)
                if isinstance(response, str):  # a verify answer, encoded
                    text, closing = response, False
                else:
                    text = json.dumps(response, sort_keys=True)
                    closing = response.get("op") == "shutdown" and response.get("ok")
                writer.write((text + "\n").encode("utf-8"))
                await writer.drain()
                if closing:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _respond(self, line):
        request_id = None
        op = "?"
        try:
            envelope = parse_request(line)
            request_id = envelope.get("id")
            op = envelope.get("op", "verify")
            self.requests += 1
            if self._draining:
                raise ProtocolError(
                    "shutting-down", "server is draining; try another instance"
                )
            if op == "ping":
                return ok_response(request_id, "ping")
            if op == "stats":
                await self._flush_writes()
                return ok_response(request_id, "stats", stats=self.stats())
            if op == "shutdown":
                asyncio.get_event_loop().create_task(self.shutdown())
                return ok_response(request_id, "shutdown")
            if op == "verify":
                return await self._verify(request_id, envelope)
            raise ProtocolError("unsupported-op", "unknown op %r" % (op,))
        except ProtocolError as err:
            self.errors[err.code] = self.errors.get(err.code, 0) + 1
            return error_response(request_id, op, err)
        except Exception as err:  # never kill the connection loop
            self.errors["internal"] = self.errors.get("internal", 0) + 1
            return error_response(
                request_id, op, error_document("internal", internal_message(err))
            )

    # -- the verify op ----------------------------------------------------
    def _context(self, budgets):
        """The semantic context folded into every store key.

        The codec schema version is NOT listed here — ``task_key``
        itself folds it in, so every caller (server, client-side
        hashing, the conformance checks) gets version-partitioned keys
        without having to remember to add it."""
        config = self.config
        return {
            "lo": config.lo,
            "hi": config.hi,
            "entailment": config.entailment,
            "max_set_size": config.max_set_size,
            "budgets": budgets,
        }

    def _request_timeout(self, envelope):
        timeout = self.config.timeout
        requested = envelope.get("timeout")
        if requested is None:
            return timeout
        if isinstance(requested, bool) or not isinstance(
            requested, (int, float)
        ) or requested <= 0:
            raise ProtocolError(
                "malformed-envelope",
                "timeout must be a positive number of seconds, got %r"
                % (requested,),
            )
        requested = float(requested)
        return requested if timeout is None else min(timeout, requested)

    async def _verify(self, request_id, envelope):
        document = envelope.get("task")
        if not isinstance(document, dict):
            raise ProtocolError(
                "malformed-envelope",
                "verify requests need a 'task' wire document (a JSON object)",
            )
        budgets = parse_budgets(envelope)
        timeout = self._request_timeout(envelope)
        key = task_key(document, self._context(budgets))
        result_text = self._stored(key)
        if result_text is not None:
            return _verify_line(request_id, key, True, 0.0, result_text)
        started = clock()
        # single-flight: concurrent requests for the same key share one
        # worker job (and one store write) instead of racing duplicates
        pending = self._inflight.get(key)
        if pending is None:
            pending = asyncio.ensure_future(
                self._run_and_store(key, document, budgets)
            )
            self._inflight[key] = pending
            pending.add_done_callback(
                lambda _: self._inflight.pop(key, None)
            )
        else:
            self.coalesced += 1
        try:
            # shield: one waiter timing out must not cancel the shared job
            result_text = await asyncio.wait_for(
                asyncio.shield(pending), timeout
            )
        except asyncio.TimeoutError:
            raise ProtocolError(
                "timeout",
                "verification exceeded the %.3gs request timeout (the "
                "worker job runs to completion — bounded by the request "
                "budgets — and its result is stored for next time)" % timeout,
            )
        return _verify_line(request_id, key, False, clock() - started, result_text)

    def _stored(self, key):
        """The stored result text for ``key``, or ``None``: from the
        memory tier, else from the disk store (which fills the tier)."""
        entry = self._tier.get(key)
        if entry is not None:
            stored_at, result_text = entry
            ttl = self.store.ttl
            if ttl is None or time.time() - stored_at <= ttl:
                self._tier.move_to_end(key)
                self.memory_hits += 1
                return result_text
            del self._tier[key]
        record = self.store.get(key)
        if record is None:
            return None
        self.disk_hits += 1
        result_text = json.dumps(record["result"], sort_keys=True)
        self._remember(key, record.get("stored_at", 0), result_text)
        return result_text

    def _remember(self, key, stored_at, result_text):
        self._tier[key] = (stored_at, result_text)
        self._tier.move_to_end(key)
        while len(self._tier) > MEMORY_TIER_ENTRIES:
            self._tier.popitem(last=False)

    async def _flush_writes(self):
        """Wait until every queued store write has landed or failed."""
        if self._store_writer.pending:
            await asyncio.get_event_loop().run_in_executor(
                None, self._store_writer.flush
            )

    async def _run_and_store(self, key, document, budgets):
        """The shared per-key job: the worker pool decodes and runs the
        document, then the result text goes to the memory tier and the
        queued store write; resolves to that text."""
        result_text = await self._workers.run(document, budgets)
        self.verified += 1
        stored_at = time.time()
        self._remember(key, stored_at, result_text)
        self._store_writer.submit(
            key, encode_record(key, result_text, document, stored_at)
        )
        return result_text

    def stats(self):
        return {
            "uptime": 0.0 if self.started_at is None else clock() - self.started_at,
            "requests": self.requests,
            "store_hits": self.memory_hits + self.disk_hits,
            "store_hits_by_tier": {
                "memory": self.memory_hits,
                "disk": self.disk_hits,
            },
            "memory_tier_size": len(self._tier),
            "store_write_failures": self._store_writer.failures,
            "verified": self.verified,
            "coalesced": self.coalesced,
            "errors": dict(self.errors),
            "store": self.store.stats(),
            "workers": self.config.workers or default_shards(),
            "executor": self.config.executor,
        }


def _verify_line(request_id, key, cached, elapsed, result_text):
    """A verify success response around already-encoded result text.

    The line equals ``json.dumps(ok_response(..., result=result),
    sort_keys=True)``: ``result`` sorts after every other envelope key,
    so its text is spliced in last.
    """
    head = json.dumps(
        ok_response(request_id, "verify", cached=cached, key=key, elapsed=elapsed),
        sort_keys=True,
    )
    return head[:-1] + ', "result": ' + result_text + "}"


async def _serve(config, on_ready=None):
    server = VerificationServer(config)
    await server.start()
    host, port = server.address
    if not config.quiet:
        print(
            "repro serve: listening on %s:%d (store: %s, %d %s workers, "
            "timeout %s)"
            % (
                host,
                port,
                server.store.root,
                config.workers or default_shards(),
                config.executor,
                "none" if config.timeout is None else "%.3gs" % config.timeout,
            ),
            flush=True,
        )
    if on_ready is not None:
        on_ready(server)
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.shutdown())
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await server.wait_stopped()
    if not config.quiet:
        print("repro serve: stopped cleanly", flush=True)


def run(config):
    """Run the daemon until SIGINT/SIGTERM or a ``shutdown`` op (blocking)."""
    asyncio.run(_serve(config))
    return 0


class BackgroundServer:
    """A daemon running on a background thread of *this* process.

    The embedding surface tests, benchmarks and notebooks use::

        with BackgroundServer(ServeConfig(port=0, executor="thread")) as bg:
            client = ServeClient(*bg.address)
            ...

    ``port=0`` binds an ephemeral port; :attr:`address` is the actual
    ``(host, port)``.  Exiting the context performs the same graceful
    shutdown as a signal would.
    """

    def __init__(self, config):
        self.config = config
        self.server = None
        self._loop = None
        self._thread = None
        self._ready = threading.Event()
        self._error = None

    @property
    def address(self):
        return self.server.address

    def start(self, timeout=10.0):
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-bg", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("background server failed to start in time")
        if self._error is not None:
            raise self._error
        return self

    def _run(self):
        try:
            asyncio.run(self._amain())
        except BaseException as err:  # surfaced to the starting thread
            self._error = err
            self._ready.set()

    async def _amain(self):
        self._loop = asyncio.get_event_loop()
        self.server = VerificationServer(self.config)
        await self.server.start()
        self._ready.set()
        await self.server.wait_stopped()

    def stop(self, timeout=30.0):
        """Shut the daemon down and wait for its thread to exit.

        The wait is on the thread, not on the scheduled shutdown: when
        the daemon is already stopping (after a client's ``shutdown``
        op), its loop can close before that coroutine runs, and the
        coroutine's future then never completes.
        """
        if self._thread is None or not self._thread.is_alive():
            return
        if not self.server._shutdown_started:
            shutdown = self.server.shutdown()
            try:
                asyncio.run_coroutine_threadsafe(shutdown, self._loop)
            except RuntimeError:  # the loop has closed already
                shutdown.close()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(
                "background server did not stop within %.3gs" % timeout
            )

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False
