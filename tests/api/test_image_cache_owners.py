"""Image rows cannot leak between domains.

Image rows are keyed by program state, and ``State({"x": True}) ==
State({"x": 1})``.  A bool session and an ``IntRange(0, 1)`` session
sharing an :class:`~repro.checker.engine.ImageCache` could therefore
read each other's rows, if anything shared one.  Nothing does: every
library route builds its session through ``Session.__init__``, which
makes one cache per session; and a cache shared on purpose keeps the
domain in its row keys, where ``BOOLS != IntRange(0, 1)``.
"""

from repro import Session
from repro.api import sharding
from repro.api.sharding import SessionSpec
from repro.checker.engine import ImageCache
from repro.lang.parser import parse_command
from repro.semantics.state import State
from repro.serve import worker
from repro.values import BOOLS, IntRange


def test_inline_sharded_and_served_sessions_own_distinct_caches():
    inline = [Session(["x"], 0, 1), Session(["x"], 0, 1), Session(["x"], 0, 2)]
    sharded = []
    saved = sharding._WORKER_SESSION
    try:
        for session in inline:
            sharding._init_worker(SessionSpec.of(session))  # a shard's set-up
            sharded.append(sharding._WORKER_SESSION)
    finally:
        sharding._WORKER_SESSION = saved
    task = inline[0].task("true", "x := 0", "forall <a>. a(x) == 0")
    worker.clear_sessions()
    try:
        served = [
            worker.session_for(worker.spec_for_task(task, lo=0, hi=hi))
            for hi in (1, 2)
        ]
    finally:
        worker.clear_sessions()
    sessions = inline + sharded + served
    assert len({id(session.images) for session in sessions}) == len(sessions)
    assert all(session.engine.cache is session.images for session in sessions)


def test_a_shared_cache_keeps_bool_and_int_rows_apart():
    assert State({"x": True}) == State({"x": 1})  # the states do merge
    cache = ImageCache()
    command = parse_command("x := x")
    as_bool = cache.post_image(command, State({"x": True}), BOOLS)
    as_int = cache.post_image(command, State({"x": 1}), IntRange(0, 1))
    assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 0
    assert [type(state["x"]) for state in as_bool] == [bool]
    assert [type(state["x"]) for state in as_int] == [int]
