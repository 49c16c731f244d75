"""Worker-side execution for the verification service.

The unit of work is one store miss: :func:`serve_document` takes the
request's codec task document and budgets, decodes the document (a
malformed one is rejected *here*, with a ``malformed-document``
:class:`~repro.serve.protocol.ProtocolError`), infers the
:class:`~repro.api.sharding.SessionSpec` of its universe
(:func:`spec_for_task`), runs the task on a warm session and returns
the result as ``json.dumps(result_document, sort_keys=True)`` text, the
form the daemon stores and splices into its response lines.  So a miss
is decoded once, where it runs, and its result is encoded once.

Two pools run that function for the daemon's event loop:

- :class:`ProcessWorkers` (the default): up to ``workers``
  ``multiprocessing`` children, each forked on the first job that finds
  every running child busy.  Each child talks to the loop over its own
  pipe, which the loop watches with ``add_reader``: the job goes down
  the pipe as one message and the result text comes back as one, with
  no manager or feeder thread in between.  A child drops every socket
  it inherited except its own pipe (the listener, the daemon's
  connections, an in-process client's socket, earlier children's pipe
  ends), so closing a connection or a pipe in the daemon is seen at
  once.  A child that dies mid-job answers that request ``internal``,
  is reaped, and a fresh child serves the next job.  On shutdown the
  pool sends each child a stop message and closes its pipe; the child
  returns from its target and is joined.
- :class:`ThreadWorkers`: the same function on a thread pool (cheap,
  for tests and tiny deployments).

Each worker keeps a small LRU registry of live sessions keyed by spec,
so consecutive tasks over the same universe share image, mask, compile
and entailment caches — the daemon's *warm-process* tier, sitting
between a cold session build and the cross-restart result store.  The
registry is bounded (:data:`MAX_SESSIONS`) because every session pins a
universe and its caches; ``max_image_entries`` in the spec bounds each
session's image/mask tiers in turn (the long-lived-daemon leak fixes in
:class:`~repro.checker.engine.ImageCache` are what make that bound
honest).
"""

import asyncio
import json
import multiprocessing
import os
import signal
import stat
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from multiprocessing import util

from ..api.sharding import SessionSpec
from ..api.task import VerificationTask, infer_variables
from ..codec import WireError, from_wire, to_wire
from .protocol import ProtocolError

#: Live sessions kept per worker process.
MAX_SESSIONS = 8

#: Seconds a child gets to exit after its pipe closed before it is killed.
JOIN_TIMEOUT = 30.0

_SESSIONS = OrderedDict()
_SESSIONS_LOCK = threading.Lock()


def spec_for_task(task, lo=0, hi=1, entailment="sat", max_set_size=None,
                  max_image_entries=None, intra_task_workers=None):
    """The :class:`SessionSpec` a task document runs under.

    The universe's variables are inferred from the triple exactly like
    the one-shot CLI does (program reads/writes plus assertion
    lookups); the domain bounds and oracle configuration come from the
    server.
    """
    assertions = [task.pre, task.post]
    if task.invariant is not None:
        assertions.append(task.invariant)
    pvars, lvars = infer_variables(task.command, assertions)
    return SessionSpec(
        pvars=tuple(pvars),
        lo=lo,
        hi=hi,
        lvars=tuple(lvars),
        entailment=entailment,
        max_set_size=max_set_size,
        max_image_entries=max_image_entries,
        intra_task_workers=intra_task_workers,
    )


def session_for(spec):
    """The (per-process) live session for ``spec``, building on demand."""
    with _SESSIONS_LOCK:
        session = _SESSIONS.get(spec)
        if session is not None:
            _SESSIONS.move_to_end(spec)
            return session
    built = spec.build()
    evicted = []
    with _SESSIONS_LOCK:
        session = _SESSIONS.get(spec)
        if session is None:
            session = built
            _SESSIONS[spec] = session
            while len(_SESSIONS) > MAX_SESSIONS:
                evicted.append(_SESSIONS.popitem(last=False)[1])
    # an evicted session's intra-task pool would otherwise outlive it
    for old in evicted:
        old.close()
    return session


def session_registry_size():
    with _SESSIONS_LOCK:
        return len(_SESSIONS)


def clear_sessions():
    with _SESSIONS_LOCK:
        sessions = list(_SESSIONS.values())
        _SESSIONS.clear()
    for session in sessions:
        session.close()


def serve_document(settings, document, budgets):
    """One store miss: task document → ``json.dumps(result, sort_keys=True)``.

    ``settings`` are the daemon's :func:`spec_for_task` keyword
    arguments.  A document that does not decode as a task raises a
    ``malformed-document`` :class:`ProtocolError`.
    """
    try:
        task = from_wire(document)
    except WireError as err:
        raise ProtocolError("malformed-document", str(err))
    if not isinstance(task, VerificationTask):
        raise ProtocolError(
            "malformed-document",
            "expected a task document, decoded a %s" % type(task).__name__,
        )
    session = session_for(spec_for_task(task, **settings))
    result = session._run_task(task, None, budgets)
    return json.dumps(to_wire(result), sort_keys=True)


def internal_message(err):
    """The message of an ``internal`` error raised by ``err``."""
    return "%s: %s" % (type(err).__name__, err)


# ---------------------------------------------------------------------------
# the thread pool
# ---------------------------------------------------------------------------

class ThreadWorkers:
    """:func:`serve_document` on up to ``workers`` threads."""

    def __init__(self, workers, settings):
        self.settings = settings
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )

    def run(self, document, budgets):
        """Awaitable result text of one job."""
        return asyncio.get_event_loop().run_in_executor(
            self._executor, serve_document, self.settings, document, budgets
        )

    async def close(self):
        """Finish the running jobs and drop the queued ones."""
        await asyncio.get_event_loop().run_in_executor(
            None, partial(self._executor.shutdown, True, cancel_futures=True)
        )


# ---------------------------------------------------------------------------
# the process pool: one pipe per child
# ---------------------------------------------------------------------------

def _drop_inherited_sockets(keep):
    """Point every inherited socket descriptor but ``keep`` at /dev/null.

    The descriptors stay taken rather than closed: the parent's socket
    objects were copied into this process too, and one that is collected
    here closes its descriptor number, which must not be a file this
    process opened since.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # no procfs: probe every descriptor the limit allows
        import resource

        fds = range(resource.getrlimit(resource.RLIMIT_NOFILE)[0])
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:  # closed since it was listed
                pass
    finally:
        os.close(null)


def _child_main(conn, settings):
    """A worker child: answer jobs from ``conn`` until a stop message or
    the pipe's EOF."""
    _drop_inherited_sockets(conn.fileno())
    # on SIGINT the daemon drains its children through their pipes
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            job = conn.recv()
        except EOFError:
            break
        if job is None:  # the daemon's stop message
            break
        document, budgets = job
        try:
            reply = ("ok", serve_document(settings, document, budgets))
        except ProtocolError as err:
            reply = (err.code, err.message)
        except Exception as err:
            reply = ("internal", internal_message(err))
        try:
            conn.send(reply)
        except OSError:  # the daemon is gone
            break
    clear_sessions()


def _fork_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _Child:
    """One worker process, the daemon's end of its pipe, and its job."""

    __slots__ = ("process", "conn", "job")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.job = None  # (future, message) while the child works on it


def _close_pipes(children):
    for child in children:
        # the stop message ends a child even where a process forked by
        # other code still holds a copy of this end, so no EOF comes
        try:
            child.conn.send(None)
        except OSError:
            pass
        child.conn.close()


def _join(processes):
    for process in processes:
        process.join(JOIN_TIMEOUT)
        if process.is_alive():
            process.kill()
            process.join()


class ProcessWorkers:
    """:func:`serve_document` in up to ``workers`` forked children.

    Must be used from one event loop thread, which forks the children
    and watches their pipes.
    """

    def __init__(self, workers, settings):
        self.workers = workers
        self.settings = settings
        self._context = _fork_context()
        self._children = []
        self._idle = []  # most recently used last, so its sessions are warm
        self._queue = deque()  # jobs waiting for a child
        self._closing = False
        # a daemon that is never stopped must not leave its children
        # waiting on their pipes while multiprocessing joins them at exit
        self._finalizer = util.Finalize(
            self, _close_pipes, args=(self._children,), exitpriority=0
        )

    def run(self, document, budgets):
        """Awaitable result text of one job."""
        if self._closing:
            raise ProtocolError("shutting-down", "the worker pool is closing")
        future = asyncio.get_event_loop().create_future()
        job = (future, (document, budgets))
        if self._idle:
            self._send(self._idle.pop(), job)
        elif len(self._children) < self.workers:
            self._send(self._fork(), job)
        else:
            self._queue.append(job)
        return future

    def _fork(self):
        conn, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_child_main,
            args=(child_end, self.settings),
            name="repro-serve-worker",
        )
        process.start()
        child_end.close()
        child = _Child(process, conn)
        self._children.append(child)
        asyncio.get_event_loop().add_reader(
            conn.fileno(), self._on_readable, child
        )
        return child

    def _send(self, child, job):
        child.job = job
        try:
            child.conn.send(job[1])
        except OSError:  # the child died while idle: a fresh one takes the job
            child.job = None
            self._queue.appendleft(job)
            self._bury(child)

    def _next(self, child):
        """Give ``child`` the next queued job, or make it idle."""
        while self._queue:
            job = self._queue.popleft()
            if not job[0].cancelled():
                self._send(child, job)
                return
        self._idle.append(child)

    def _on_readable(self, child):
        try:
            status, text = child.conn.recv()
        except (EOFError, OSError):
            self._bury(child)
            return
        future = child.job[0]
        child.job = None
        if not future.done():
            if status == "ok":
                future.set_result(text)
            else:
                future.set_exception(ProtocolError(status, text))
        self._next(child)

    def _bury(self, child):
        """Reap a child whose pipe closed; fail its job; replace it."""
        asyncio.get_event_loop().remove_reader(child.conn.fileno())
        child.conn.close()
        self._children.remove(child)
        if child in self._idle:
            self._idle.remove(child)
        process = child.process
        process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join()
        if child.job is not None and not child.job[0].done():
            child.job[0].set_exception(
                ProtocolError(
                    "internal",
                    "worker process %d exited with code %s before answering"
                    % (process.pid, process.exitcode),
                )
            )
        if self._queue and not self._closing:
            self._next(self._fork())

    async def close(self):
        """Finish the running jobs, drop the queued ones, close every
        pipe and join every child."""
        self._closing = True
        for future, _ in self._queue:
            future.cancel()
        self._queue.clear()
        running = [child.job[0] for child in self._children if child.job]
        await asyncio.gather(*running, return_exceptions=True)
        loop = asyncio.get_event_loop()
        children = list(self._children)
        for child in children:
            loop.remove_reader(child.conn.fileno())
        self._finalizer()  # closes the pipes
        self._children.clear()
        self._idle.clear()
        await loop.run_in_executor(
            None, _join, [child.process for child in children]
        )
