"""Worker-side execution for the verification service.

The daemon's verification work runs here — either on a
``ProcessPoolExecutor`` (the default: CPU-bound oracle enumeration
sidesteps the GIL exactly like ``verify_many(sharding="process")``) or
inline on a thread pool.  Either way the unit of work is one codec task
document plus the :class:`~repro.api.sharding.SessionSpec` that rebuilds
its session: the same picklable recipe process sharding ships, reused
verbatim.

Each worker process keeps a small LRU registry of live sessions keyed by
spec, so consecutive tasks over the same universe share image, mask,
compile and entailment caches — the daemon's *warm-process* tier,
sitting between a cold session build and the cross-restart result store.
The registry is bounded (:data:`MAX_SESSIONS`) because every session
pins a universe and its caches; ``max_image_entries`` in the spec bounds
each session's image/mask tiers in turn (the long-lived-daemon leak
fixes in :class:`~repro.checker.engine.ImageCache` are what make that
bound honest).
"""

import threading
from collections import OrderedDict

from ..api.sharding import SessionSpec
from ..api.task import VerificationTask, infer_variables
from ..codec import from_wire, to_wire

#: Live sessions kept per worker process.
MAX_SESSIONS = 8

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


def run_task_document(spec, document, budgets=None):
    """Decode, verify and re-encode one task document → result document.

    This is the function the server submits to its executor; everything
    that crosses the pool boundary (spec, document, budgets, result) is
    picklable by construction.
    """
    task = from_wire(document)
    if not isinstance(task, VerificationTask):
        raise TypeError(
            "expected a task document, decoded %r" % type(task).__name__
        )
    session = session_for(spec)
    result = session._run_task(task, None, budgets or {})
    return to_wire(result)
