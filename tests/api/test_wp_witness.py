"""The wp refutation's witness: the least refuting set, on every route.

When the syntactic-wp backend's closing entailment ``P |= wp(C, Q)``
fails on a ``sat`` oracle, its witness is the *least refuting set*: the
initial set ``S`` with ``P(S)`` and ``¬Q(sem(C, S))`` whose membership
vector, read in ``oracle.universe`` order with "out" before "in", is
lexicographically least.  These tests pin that set against a brute
enumeration, show that it does not depend on the session's solver
history or on the execution route, and that no Def. 5 scan runs.
"""

import itertools

import pytest

from repro.api import Session
from repro.api.backends import SyntacticWPBackend
from repro.api.outcome import Refuted
from repro.api.task import VerificationTask
from repro.checker.counterexample import Witness
from repro.checker.engine import CheckerEngine
from repro.gen import trials
from repro.gen.config import FUZZ_CONFIG
from repro.serve import BackgroundServer, ServeClient, ServeConfig, decode_result
from repro.serve.worker import spec_for_task


def stream(seed, count):
    """Loop-free generated tasks over x, y in {0, 1}: 4 states."""
    return [
        VerificationTask(t.triple.pre, t.triple.command, t.triple.post)
        for t in trials(seed, count, FUZZ_CONFIG, straightline_bias=1.0, loop_bias=0.0)
    ]


STREAM = stream(3, 60)


def fresh_session():
    return Session(list(FUZZ_CONFIG.pvars), FUZZ_CONFIG.lo, FUZZ_CONFIG.hi)


def least_refuting_set(session, task):
    """The least refuting initial set by brute enumeration, or ``None``."""
    states = session.oracle.universe
    assert len(states) <= 6
    domain = session.universe.domain
    for bits in itertools.product((False, True), repeat=len(states)):
        chosen = frozenset(u for u, b in zip(states, bits) if b)
        if task.pre.holds(chosen, domain) and not task.post.holds(
            session.engine.sem(task.command, chosen), domain
        ):
            return chosen
    return None


def wp_witnesses(results):
    """``{index: witness}`` of the results, each refuted by the wp backend."""
    assert all(r.verdict or r.method == "syntactic-wp+sat" for r in results)
    return {i: r.witness for i, r in enumerate(results) if r.verdict is False}


@pytest.fixture(scope="module")
def expected():
    """The brute-force least set of every invalid task of the stream,
    with its image."""
    session = fresh_session()
    witnesses = {}
    for i, task in enumerate(STREAM):
        least = least_refuting_set(session, task)
        if least is not None:
            witnesses[i] = Witness(least, session.engine.sem(task.command, least))
    assert len(witnesses) >= 20
    return witnesses


class TestLeastRefutingSet:
    def test_fresh_session(self, expected):
        assert wp_witnesses(fresh_session().verify_many(STREAM)) == expected

    def test_session_warmed_on_another_stream(self, expected):
        session = fresh_session()
        session.verify_many(stream(8, 60))
        assert wp_witnesses(session.verify_many(STREAM)) == expected

    def test_thread_pool_batch(self, expected):
        report = fresh_session().verify_many(STREAM, max_workers=4)
        assert wp_witnesses(report) == expected

    def test_thread_worker_daemon(self, tmp_path):
        config = ServeConfig(
            port=0, executor="thread", workers=2, store_path=str(tmp_path / "store"),
            quiet=True, timeout=30.0,
        )
        with BackgroundServer(config) as server, ServeClient(*server.address) as client:
            results = [decode_result(client.verify_task(task)) for task in STREAM]
        checked = 0
        for i, witness in wp_witnesses(results).items():
            # the daemon infers the universe from the task's variables
            task = STREAM[i]
            session = spec_for_task(task).build()
            least = least_refuting_set(session, task)
            assert witness == Witness(least, session.engine.sem(task.command, least))
            checked += 1
        assert checked >= 20


def test_uncapped_sat_refutations_never_scan(monkeypatch):
    """The witness comes from the failing entailment: the Def. 5 scan
    (and so the fallback that uses it) never runs."""

    def no_scan(*args, **kwargs):
        raise AssertionError("a wp refutation scanned for its witness")

    monkeypatch.setattr(CheckerEngine, "scan_masks", no_scan)
    session = fresh_session()
    backend = SyntacticWPBackend()
    refuted = 0
    for task in stream(5, 120):
        if not backend.supports(task):
            continue
        outcome = backend.attempt(task, session)
        if outcome.verdict is False:
            assert isinstance(outcome, Refuted) and outcome.witness is not None
            refuted += 1
    assert refuted >= 30
