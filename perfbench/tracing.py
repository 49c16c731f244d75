"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer (the table
below) wherever they are looked up: the defining module, every module
that imported the function by name, and the class for methods.  Spans
stay in memory; :meth:`Tracer.write` saves them when the run ends.  A
worker process forked after :func:`install` records its own spans and
writes them when it exits, for the parent to merge.

A span is ``[layer, request, start, end, busy, child, parent]``: ``busy``
is the time inside the call (for a generator, the sum of its ``next()``
calls), ``child`` the part of it spent in nested spans, so a layer's
self time is the sum of ``busy - child`` over its spans.  A call into
the layer that is already on top of the stack (recursion, or
``wp_syntactic`` inside ``verify_straightline``) records no new span.
"""

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
import weakref
from multiprocessing import util

clock = time.perf_counter

#: (layer, defining module, function) — wrapped at every lookup site.
FUNCTIONS = (
    ("lang.parse", "repro.lang.parser", "parse_command"),
    ("assertions.parse", "repro.assertions.parser", "parse_assertion"),
    ("logic.wp", "repro.logic.outline", "verify_straightline"),
    ("logic.wp", "repro.logic.outline", "wp_syntactic"),
    ("solver.ground", "repro.solver.encode", "ground_assertion"),
    ("symbolic.encode", "repro.symbolic.encode", "encode_validity"),
    ("codec.encode", "repro.codec.wire", "to_wire"),
    ("codec.decode", "repro.codec.wire", "from_wire"),
    ("serve.key", "repro.serve.protocol", "task_key"),
)

#: (layer, module, class, method) — wrapped on the class.  The oracle's
#: span minus its ground and solve children is the CNF/Tseitin encoding.
METHODS = (
    ("solver.cnf", "repro.assertions.entail", "EntailmentOracle", "entails"),
    ("solver.solve", "repro.solver.sat", "IncrementalSolver", "solve"),
    ("solver.solve", "repro.solver.sat", "SATSolver", "solve"),
    ("checker.exec", "repro.checker.engine", "ImageCache", "post_image_mask"),
    ("checker.exec", "repro.checker.engine", "ImageCache", "post_image"),
    ("serve.store_get", "repro.serve.store", "ResultStore", "get"),
    ("serve.store_put", "repro.serve.store", "ResultStore", "put"),
)

#: (layer, module, class, generator method) — timed per ``next()``.
GENERATORS = (
    ("checker.scan", "repro.checker.engine", "CheckerEngine", "scan_masks"),
)


class Tracer:
    """In-memory span recorder (one per process)."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.sites = []
        self._reset()

    def _reset(self):
        self.spans = []
        self.counts = {}
        self.sessions = []  # [weak reference, counts when last seen alive]
        self.retired = {}  # summed counts of sessions that were collected
        self.request = None
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent[0] == layer:
            return fn(*args, **kwargs)
        span = [layer, self.request, clock(), 0.0, 0.0, 0.0, parent]
        self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            span[3] = clock()
            span[4] = span[3] - span[2]
            if parent is not None:
                parent[5] += span[4]

    def generate(self, layer, gen):
        """Re-yield ``gen``, timing each ``next()`` as part of one span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [layer, self.request, clock(), 0.0, 0.0, 0.0, parent]
        self.spans.append(span)
        yields = rejected = 0
        try:
            while True:
                started = clock()
                stack.append(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    span[3] = clock()
                    spent = span[3] - started
                    span[4] += spent
                    if parent is not None:
                        parent[5] += spent
                yields += 1
                if item[1] is None:
                    rejected += 1
                yield item
        finally:
            self.count("checker.candidates", yields)
            self.count("checker.pre_rejected", rejected)

    def track(self, session):
        """Follow ``session``'s counts without keeping it alive.

        The counts of every followed session are read again whenever a
        new one is made, and kept once the session has been collected.
        """
        alive = []
        for entry in self.sessions:
            current = entry[0]()
            if current is None:
                _add(self.retired, entry[1])
            else:
                entry[1] = session_counts(current)
                alive.append(entry)
        alive.append([weakref.ref(session), {}])
        self.sessions = alive

    def caches(self):
        """Summed cache and oracle counts of every session followed."""
        total = dict(self.retired)
        for ref, counts in self.sessions:
            current = ref()
            _add(total, counts if current is None else session_counts(current))
        return total

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- summaries -------------------------------------------------------
    def summary(self, requests=None):
        """``{"self": {layer: s}, "calls": {layer: n}, "counts", "caches"}``.

        With ``requests`` (a set of request ids) only spans recorded for
        those requests count, and counters and caches are left out.
        """
        self_time = {}
        calls = {}
        for layer, request, _, _, busy, child, _ in self.spans:
            if requests is not None and request not in requests:
                continue
            self_time[layer] = self_time.get(layer, 0.0) + busy - child
            calls[layer] = calls.get(layer, 0) + 1
        out = {"self": self_time, "calls": calls}
        if requests is None:
            out["counts"] = dict(self.counts)
            out["caches"] = self.caches()
        return out

    def write(self, name):
        """Save every span as one JSON line (ids replace parent links)."""
        os.makedirs(self.out_dir, exist_ok=True)
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, request, start, end, busy, child, parent) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        [index, None if parent is None else ids.get(id(parent)),
                         layer, request, start, end, busy, child]
                    )
                    + "\n"
                )
        return path

    # -- forked workers --------------------------------------------------
    def _after_fork_in_child(self):
        self._reset()
        util.Finalize(None, self._write_child, exitpriority=100)

    def _write_child(self):
        pid = os.getpid()
        self.write("worker-%d.spans.jsonl" % pid)
        with open(
            os.path.join(self.out_dir, "worker-%d.summary.json" % pid), "w",
            encoding="utf-8",
        ) as handle:
            json.dump(self.summary(), handle)

    def worker_summaries(self):
        """Summaries written by worker processes that have exited."""
        out = []
        if not os.path.isdir(self.out_dir):
            return out
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith("worker-") and name.endswith(".summary.json"):
                with open(os.path.join(self.out_dir, name), encoding="utf-8") as f:
                    out.append(json.load(f))
        return out


def session_counts(session):
    """``Session.cache_info()`` and oracle ``method_counts()`` as one flat
    table (nested tables summed)."""
    info = dict(session.cache_info())
    for method, count in session.oracle.method_counts().items():
        info["method_" + method] = count
    return {
        key: sum(value.values()) if isinstance(value, dict) else value
        for key, value in info.items()
    }


def _add(total, counts):
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def merge(summaries):
    """Sum several :meth:`Tracer.summary` results."""
    out = {"self": {}, "calls": {}, "counts": {}, "caches": {}}
    for summary in summaries:
        for part, table in summary.items():
            for key, value in table.items():
                out[part][key] = out[part].get(key, 0) + value
    return out


def _import_all():
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _rebind(original, wrapper):
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper`` → the rebound ``module.attribute`` names."""
    sites = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                sites.append("%s.%s" % (name, attr))
    return sites


def install(out_dir):
    """Wrap every entry point in the tables → the process's :class:`Tracer`."""
    _import_all()
    tracer = Tracer(out_dir)

    def function_wrapper(layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs)

        return traced

    def generator_wrapper(layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.generate(layer, fn(*args, **kwargs))

        return traced

    for layer, module, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        for site in _rebind(original, function_wrapper(layer, original)):
            tracer.sites.append((layer, site))
    for table, make in ((METHODS, function_wrapper), (GENERATORS, generator_wrapper)):
        for layer, module, cls_name, attr in table:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, make(layer, getattr(cls, attr)))
            tracer.sites.append((layer, "%s.%s.%s" % (module, cls_name, attr)))

    from repro.api.session import Session

    original_init = Session.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.track(self)

    Session.__init__ = init
    # runs in multiprocessing children after their finalizer registry is
    # reset, so the exit hook registered there survives
    util.register_after_fork(tracer, Tracer._after_fork_in_child)
    return tracer
