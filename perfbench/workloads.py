"""The two closed-loop workloads.

Each workload has the same life cycle: :meth:`warm_up` does the work
once so lazy set-up finishes before timing; :meth:`run` drives tasks
one at a time (the next task is sent only after the previous verdict
arrived) until ``seconds`` have passed and returns a :class:`Window`;
:meth:`grade` checks the window's outcomes against the reference.

A run is a sequence of slices that all do the same work.  Each slice
starts with :data:`SETUPS_PER_SLICE` timed cold set-ups and uses the
last one:

- ``hyper-sat``: a slice is one pass over a corpus of GNI-class triples
  in the shapes of the paper's Sect. 2 C1–C4, Fig. 4 and Fig. 6, with a
  fresh ``Session`` (cold caches, as a ``verify_many`` batch would).
- ``serve-mix``: a slice is one daemon's life.  One client connection
  sends the seed's stream to an in-process daemon with one worker
  process and a fresh store; every task is requested three times, so
  the first request misses and the repeats hit the store.  Each daemon
  answers the stream once, so the worker's peak memory does not depend
  on how fast the host ran.

A window keeps only compact records (latencies as floats, outcome
counts, result documents as strings), so the benchmark's own heap does
not lengthen the program's garbage collections.  Time the benchmark
spends setting up, generating inputs and keeping records is left out of
``Window.elapsed``.  ``run.py`` ranks the slices to find the stretches
the host did not slow down.
"""

import gc
import json
import shutil
import tempfile
import time

from repro.api.session import Session
from repro.api.task import infer_variables
from repro.checker.universe import Universe
from repro.codec import from_wire
from repro.serve import BackgroundServer, ServeClient, ServeConfig, decode_result
from repro.values import IntRange

import corpus
from reference import Checker, reference_verdict

clock = time.perf_counter

#: Cold set-ups timed at the start of each slice.
SETUPS_PER_SLICE = 3


class Window:
    """What one measured window produced."""

    def __init__(self):
        self.latencies = []  # seconds per completed task
        self.slices = []  # (start, end, set-up seconds) of each complete slice
        self.setups = []  # seconds of every cold set-up made
        self.outcomes = {}  # hashable outcome record -> completed tasks with it
        self.failed = 0
        self.decided = 0
        self.elapsed = 0.0
        self.backend_time = {}  # backend -> seconds it ran (store hits excluded)
        self.decided_by = {}  # backend -> tasks it decided
        self.service = 0.0  # serve-mix: backend seconds behind the responses
        self.hits = []  # serve-mix: positions of requests the store answered
        self.store = {}  # serve-mix: store ``hits``/``misses`` summed over daemons

    @property
    def done(self):
        return len(self.latencies)

    @property
    def attempted(self):
        return len(self.latencies) + self.failed

    def set_up(self, workload):
        """Time :data:`SETUPS_PER_SLICE` cold set-ups of ``workload``,
        tearing down all but the last → its handle and the times."""
        times = []
        for number in range(SETUPS_PER_SLICE):
            started = clock()
            handle = workload.setup()
            times.append(clock() - started)
            if number < SETUPS_PER_SLICE - 1:
                workload.teardown(handle)
        self.setups += times
        return handle, times

    def note(self, result, ran=True):
        """Account one ``TaskResult``; ``ran=False`` for a store hit."""
        if result.verdict is not None:
            self.decided += 1
            backend = result.outcome.backend
            self.decided_by[backend] = self.decided_by.get(backend, 0) + 1
        if ran:
            for outcome in result.outcomes:
                self.backend_time[outcome.backend] = (
                    self.backend_time.get(outcome.backend, 0.0) + outcome.elapsed
                )

    def count(self, outcome):
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1


class HyperSat:
    """A fixed corpus verified pass after pass, one fresh session per pass."""

    pvars = corpus.HYPER_SAT_PVARS
    domain = corpus.HYPER_SAT_DOMAIN

    def __init__(self, seed):
        self.entries = corpus.hyper_sat_corpus(seed)
        self.universe = Universe(self.pvars, IntRange(*self.domain))
        self.checker = Checker()

    def setup(self):
        """A fresh session plus the parsed corpus."""
        session = Session(self.pvars, self.domain[0], self.domain[1], entailment="sat")
        return session, [session.task(e[1], e[2], e[3], label=e[0]) for e in self.entries]

    def teardown(self, handle):
        pass

    def warm_up(self):
        session, tasks = self.setup()
        for task in tasks:
            session.verify(task)

    def run(self, seconds, tracer=None):
        window = Window()
        outside = 0.0
        started = clock()
        deadline = started + seconds
        now = started
        while now < deadline:
            mark = clock()
            if tracer is not None:
                tracer.request = None
            (session, tasks), setups = window.set_up(self)
            outside += clock() - mark
            first = window.done
            for index, task in enumerate(tasks):
                if tracer is not None:
                    tracer.request = window.done
                begin = clock()
                try:
                    result = session.verify(task)
                except Exception:  # a crash is a failed task, not a crashed run
                    result = None
                now = clock()
                if result is None:
                    window.failed += 1
                else:
                    window.latencies.append(now - begin)
                    window.note(result)
                    window.count((index, result.verdict, result.witness))
                if now >= deadline:
                    break
            else:
                window.slices.append((first, window.done, setups))
        window.elapsed = clock() - started - outside
        self.tasks = tasks
        return window

    def grade(self, window):
        """Number of completed tasks whose outcome matches the known answer.

        Where the paper states a verdict, the interpreted reference must
        agree with it; a disagreement fails every result for that task.
        """
        tasks = self.tasks
        for index, (task, entry) in enumerate(zip(tasks, self.entries)):
            paper = entry[4]
            reference = self.checker.verdict(index, task, self.universe)
            if paper is not None and reference is not paper:
                self.checker.expected[index] = None
        correct = 0
        for (index, verdict, witness), count in window.outcomes.items():
            if self.checker.correct(index, tasks[index], self.universe, verdict, witness):
                correct += count
        return correct


def _canonical(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class Daemon:
    """A started daemon (start through the first ``ping``), the client
    connected to it and its fresh store."""

    def __init__(self, scratch):
        self.store = tempfile.mkdtemp(prefix="store-", dir=scratch)
        config = ServeConfig(
            host="127.0.0.1",
            port=0,
            store_path=self.store,
            workers=1,
            executor="process",
            lo=corpus.SERVE_DOMAIN[0],
            hi=corpus.SERVE_DOMAIN[1],
            quiet=True,
        )
        self.server = BackgroundServer(config).start()
        self.client = ServeClient(*self.server.address)
        self.client.ping()
        self.forked = False  # whether the daemon's worker process runs

    def stop(self):
        try:
            if self.forked:
                # The worker was forked while this client was connected and
                # holds its socket, so closing the client alone would not end
                # the connection and the daemon's drain would wait it out.
                # Without a worker, ``server.stop()`` alone is used: called
                # right after a client's ``shutdown`` that finished at once,
                # it can hang until its timeout.
                self.client.shutdown()
        finally:
            self.client.close()
            self.server.stop()
            shutil.rmtree(self.store, ignore_errors=True)


class ServeMix:
    """One client, one in-process daemon, one worker process."""

    def __init__(self, seed, scratch):
        self.scratch = scratch
        self.checker = Checker()
        self.first = {}
        self._universes = {}
        self.tasks, self.order, self.spare = corpus.serve_stream(
            seed, lambda task: reference_verdict(task, self.universe_for(task))
        )

    def setup(self):
        return Daemon(self.scratch)

    def teardown(self, daemon):
        daemon.stop()

    def start(self, window):
        """Set up a slice's daemon, then send it the spare task (which is
        not in the stream), so its pool forks the worker before timing."""
        daemon, setups = window.set_up(self)
        daemon.client.verify_task(self.spare)
        daemon.forked = True
        return daemon, setups

    def warm_up(self):
        daemon, _ = self.start(Window())
        for index in self.order:
            daemon.client.verify_task(self.tasks[index])
        daemon.stop()

    def run(self, seconds, tracer=None):
        """Send the stream to one daemon after another until ``seconds``
        have passed.  The first result document of each key in a
        daemon's life is kept (as text) for grading; every later one in
        that life must be byte-identical."""
        window = Window()
        self.first = {}  # (daemon life, store key) -> (task index, document)
        outside = 0.0
        started = clock()
        deadline = started + seconds
        now = started
        life = 0
        while now < deadline:
            mark = clock()
            if tracer is not None:
                tracer.request = None
            daemon, setups = self.start(window)
            outside += clock() - mark
            first = window.done
            for index in self.order:
                if tracer is not None:
                    tracer.request = window.done
                begin = clock()
                try:
                    response = daemon.client.verify_task(self.tasks[index])
                    result = decode_result(response)
                except Exception:  # a refused or broken request counts as failed
                    result = None
                now = clock()
                if result is None:
                    window.failed += 1
                else:
                    window.latencies.append(now - begin)
                    cached = bool(response.get("cached"))
                    key = (life, response["key"])
                    document = _canonical(response["result"])
                    if cached:
                        window.hits.append(window.done - 1)
                    else:
                        window.service += result.elapsed
                    window.note(result, ran=not cached)
                    first_seen = self.first.setdefault(key, (index, document))
                    window.count((key, document == first_seen[1]))
                outside += clock() - now
                if now >= deadline:
                    break
            else:
                window.slices.append((first, window.done, setups))
            mark = clock()
            store = daemon.client.stats().get("store", {})
            window.store["hits"] = window.store.get("hits", 0) + store.get("hits", 0)
            window.store["misses"] = (
                window.store.get("misses", 0) + store.get("misses", 0) - 1  # the spare
            )
            daemon.stop()
            # the stopped daemon leaves reference cycles behind; collect
            # them here rather than in the next daemon's timed requests
            gc.collect()
            outside += clock() - mark
            life += 1
        window.elapsed = clock() - started - outside
        return window

    def universe_for(self, task):
        pvars, lvars = infer_variables(task.command, [task.pre, task.post])
        key = (tuple(pvars), tuple(lvars))
        universe = self._universes.get(key)
        if universe is None:
            universe = Universe(pvars, IntRange(*corpus.SERVE_DOMAIN), lvars=lvars)
            self._universes[key] = universe
        return universe

    def grade(self, window):
        """Requests whose result matches the reference and, for a store
        hit, equals its key's first result document byte for byte."""
        correct = 0
        for ((life, key), same_document), count in window.outcomes.items():
            if not same_document:
                continue
            index, document = self.first[(life, key)]
            task = self.tasks[index]
            result = from_wire(json.loads(document))
            if self.checker.correct(
                key, task, self.universe_for(task), result.verdict, result.witness
            ):
                correct += count
        return correct


def make(name, seed, scratch):
    if name == "hyper-sat":
        return HyperSat(seed)
    if name == "serve-mix":
        return ServeMix(seed, scratch)
    raise ValueError("unknown workload %r" % name)
