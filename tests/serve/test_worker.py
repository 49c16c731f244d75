"""The worker-side execution path: spec inference, session reuse."""

import json

import pytest

from repro.api.sharding import SessionSpec
from repro.api.task import VerificationTask
from repro.assertions.parser import parse_assertion
from repro.codec import from_wire, to_wire
from repro.lang.parser import parse_command
from repro.serve.protocol import ProtocolError
from repro.serve.worker import (
    MAX_SESSIONS,
    clear_sessions,
    serve_document,
    session_for,
    session_registry_size,
    spec_for_task,
)


def make_task(pre, program, post, invariant=None):
    return VerificationTask(
        pre=parse_assertion(pre),
        command=parse_command(program),
        post=parse_assertion(post),
        invariant=None if invariant is None else parse_assertion(invariant),
    )


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_sessions()
    yield
    clear_sessions()


class TestSpecInference:
    def test_variables_inferred_from_triple(self):
        task = make_task(
            "forall <a>. a(x) == 0", "y := x", "forall <a>. a(y) == 0"
        )
        spec = spec_for_task(task, lo=0, hi=2, entailment="brute")
        assert spec.pvars == ("x", "y")
        assert spec.lo == 0 and spec.hi == 2
        assert spec.entailment == "brute"

    def test_invariant_variables_participate(self):
        task = make_task(
            "forall <a>. a(x) == 0",
            "while (x == 0) { x := 1 }",
            "forall <a>. a(x) == 1",
            invariant="forall <a>. a(z) == a(z)",
        )
        spec = spec_for_task(task)
        assert "z" in spec.pvars

    def test_caps_flow_through(self):
        task = make_task("forall <a>. a(x) == 0", "skip", "forall <a>. a(x) == 0")
        spec = spec_for_task(task, max_set_size=3, max_image_entries=16)
        assert spec.max_set_size == 3
        assert spec.max_image_entries == 16


class TestSessionRegistry:
    def spec(self, name):
        return SessionSpec(
            pvars=(name,), lo=0, hi=1, lvars=(), entailment="sat",
            max_set_size=None,
        )

    def test_same_spec_reuses_session(self):
        first = session_for(self.spec("x"))
        second = session_for(self.spec("x"))
        assert first is second
        assert session_registry_size() == 1

    def test_distinct_specs_distinct_sessions(self):
        assert session_for(self.spec("x")) is not session_for(self.spec("y"))
        assert session_registry_size() == 2

    def test_registry_is_bounded(self):
        for i in range(MAX_SESSIONS + 3):
            session_for(self.spec("v%d" % i))
        assert session_registry_size() == MAX_SESSIONS

    def test_lru_keeps_recent_sessions(self):
        keep = session_for(self.spec("keep"))
        for i in range(MAX_SESSIONS - 1):
            session_for(self.spec("v%d" % i))
        session_for(self.spec("keep"))  # refresh
        session_for(self.spec("one-more"))  # evicts v0, not keep
        assert session_for(self.spec("keep")) is keep

    def test_eviction_and_clear_close_sessions(self, monkeypatch):
        from repro.api.session import Session

        closed = []
        monkeypatch.setattr(Session, "close", lambda self: closed.append(self))
        first = session_for(self.spec("v0"))
        for i in range(1, MAX_SESSIONS + 1):
            session_for(self.spec("v%d" % i))
        assert closed == [first]  # the least recently used one
        clear_sessions()
        assert len(closed) == 1 + MAX_SESSIONS


class TestRunTaskDocument:
    """:func:`serve_document`: one task document → result text."""

    def test_round_trip_matches_inline_run(self):
        task = make_task(
            "forall <a>. a(x) == 0", "x := 0", "forall <a>. a(x) == 0"
        )
        text = serve_document({}, to_wire(task), {})
        remote = from_wire(json.loads(text))
        assert text == json.dumps(to_wire(remote), sort_keys=True)
        inline = spec_for_task(task).build()._run_task(task, None, {})
        assert remote.verdict is True
        assert remote.verdict == inline.verdict
        assert remote.method == inline.method

    def test_budgets_are_honored(self):
        task = make_task(
            "forall <a>. a(x) == 0", "x := 0", "forall <a>. a(x) == 0"
        )
        text = serve_document({}, to_wire(task), {"syntactic-wp": 100.0})
        assert from_wire(json.loads(text)).verdict is True

    def test_non_task_document_rejected(self):
        task = make_task("forall <a>. a(x) == 0", "skip", "forall <a>. a(x) == 0")
        for document in (to_wire(task.pre), {"$kind": "task"}):
            with pytest.raises(ProtocolError) as info:
                serve_document({}, document, {})
            assert info.value.code == "malformed-document"
