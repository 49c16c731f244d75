"""Process-sharded verify_many, the wire-document transport, API timing."""

import pytest

from repro.api import Session, SessionSpec, default_shards, verify_many_sharded
from repro.api.outcome import Proved, Refuted, Undecided
from repro.api.session import Report, TaskResult
from repro.api.sharding import encode_task
from repro.api.task import VerificationTask
from repro.assertions.semantic import sem as sem_assertion
from repro.assertions.parser import parse_assertion
from repro.codec import from_wire, to_wire
from repro.lang.parser import parse_command

TASKS = [
    ("forall <a>, <b>. a(l) == b(l)",
     "y := nonDet(); l := h xor y",
     "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"),
    ("true", "l := h", "forall <a>, <b>. a(l) == b(l)"),
    ("forall <a>. a(l) == 0", "skip", "forall <a>. a(l) == 0"),
    ("exists <a>. a(h) == 1", "h := 0", "forall <a>. a(h) == 0"),
]


def fresh_session():
    return Session(["h", "l", "y"], lo=0, hi=1)


class TestShardedVerifyMany:
    def test_verdicts_match_serial_in_order(self):
        serial = fresh_session().verify_many(TASKS)
        sharded = fresh_session().verify_many(TASKS, sharding="process", shards=2)
        assert [r.verdict for r in serial] == [r.verdict for r in sharded]
        assert [r.method for r in serial] == [r.method for r in sharded]
        assert [r.task.label for r in sharded] == [r.task.label for r in serial]

    def test_single_shard(self):
        report = fresh_session().verify_many(TASKS, sharding="process", shards=1)
        assert len(report) == len(TASKS)
        assert report.refuted  # task 1 is the classic leak

    def test_more_shards_than_tasks(self):
        report = fresh_session().verify_many(TASKS[:2], sharding="process", shards=8)
        assert len(report) == 2

    def test_sharded_proofs_equal_inline_proofs(self):
        """The PR-3 elision workaround is gone: a process shard returns
        Outcome objects whose proof trees compare equal to the inline
        run's, and every object round-trips through the codec."""
        inline = fresh_session().verify_many(TASKS)
        sharded = fresh_session().verify_many(TASKS, sharding="process", shards=2)
        for mine, theirs in zip(inline, sharded):
            assert type(mine.outcome) is type(theirs.outcome)
            assert mine.proof == theirs.proof
            assert mine.witness == theirs.witness
            # the whole sharded result survives another codec round-trip
            assert from_wire(to_wire(theirs)) == theirs
        proved = sharded[0].outcome
        assert isinstance(proved, Proved) and proved.proof is not None
        assert "proof elided" not in proved.note

    def test_counterexample_witness_survives(self):
        report = fresh_session().verify_many(TASKS, sharding="process", shards=2)
        refuted = report.refuted[0]
        assert isinstance(refuted.outcome, Refuted)
        assert refuted.witness is not None
        assert refuted.witness.pre_set  # concrete refuting initial set
        assert "counterexample" in refuted.counterexample

    def test_unknown_sharding_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sharding"):
            fresh_session().verify_many(TASKS, sharding="carrier-pigeon")

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            fresh_session().verify_many(TASKS, sharding="process", shards=0)

    def test_thread_sharding_honors_shards(self):
        report = fresh_session().verify_many(TASKS, sharding="thread", shards=2)
        assert [r.verdict for r in report] == [
            r.verdict for r in fresh_session().verify_many(TASKS)
        ]
        with pytest.raises(ValueError, match="conflicting worker counts"):
            fresh_session().verify_many(
                TASKS, sharding="thread", shards=2, max_workers=3
            )

    def test_custom_backends_rejected(self):
        from repro.api import ExhaustiveBackend

        session = Session(["h"], lo=0, hi=1, backends=(ExhaustiveBackend(),))
        with pytest.raises(ValueError, match="custom backend"):
            session.verify_many(TASKS[:1], sharding="process")

    def test_backend_override_rejected(self):
        from repro.api import ExhaustiveBackend

        with pytest.raises(ValueError, match="backend"):
            verify_many_sharded(
                fresh_session(), TASKS[:1], backends=(ExhaustiveBackend(),)
            )

    def test_semantic_assertions_rejected(self):
        session = fresh_session()
        semantic = sem_assertion(lambda S: True, "anything")
        task = VerificationTask(
            pre=semantic,
            command=parse_command("skip"),
            post=parse_assertion("forall <a>. a(l) == 0"),
        )
        with pytest.raises(ValueError, match="syntactic"):
            session.verify_many([task], sharding="process")


class TestEncoding:
    def test_encode_task_is_a_wire_document(self):
        session = fresh_session()
        task = session.task(*TASKS[0])
        document = encode_task(task)
        assert document["$kind"] == "task"
        assert "schema_version" in document
        assert from_wire(document) == task

    def test_session_spec_rebuilds_equivalent_session(self):
        session = Session(
            ["a", "b"], lo=0, hi=2, lvars=["t"], entailment="brute", max_set_size=3
        )
        spec = SessionSpec.of(session)
        rebuilt = spec.build()
        assert rebuilt.universe.pvars == session.universe.pvars
        assert rebuilt.universe.lvars == session.universe.lvars
        assert rebuilt.universe.domain.lo == 0
        assert rebuilt.universe.domain.hi == 2
        assert rebuilt.entailment == "brute"
        assert rebuilt.max_set_size == 3

    def test_default_shards_positive(self):
        assert default_shards() >= 1


class TestReportSummaryMixedVerdicts:
    """Regression: summary counts must partition under mixed verdicts."""

    def _result(self, verdict, label):
        task = VerificationTask(
            pre=parse_assertion("true"),
            command=parse_command("skip"),
            post=parse_assertion("true"),
            label=label,
        )
        if verdict is None:
            outcomes = (Undecided("exhaustive", "oracle", reason="budget"),)
        elif verdict:
            outcomes = (Proved("exhaustive", "oracle"),)
        else:
            outcomes = (Refuted("exhaustive", "oracle"),)
        return TaskResult(task, outcomes)

    def test_counts_partition(self):
        report = Report(
            (
                self._result(True, "ok-1"),
                self._result(False, "bad"),
                self._result(None, "meh"),
                self._result(True, "ok-2"),
            ),
            elapsed=1.0,
        )
        assert len(report.verified) == 2
        assert len(report.refuted) == 1
        assert len(report.undecided) == 1
        summary = report.summary()
        assert "2 verified, 1 refuted, 1 undecided" in summary
        for label in ("ok-1", "bad", "meh", "ok-2"):
            assert label in summary
        assert not report.all_verified
        assert bool(report) is False

    def test_unlabeled_tasks_numbered(self):
        report = Report((self._result(True, ""),))
        assert "task 0" in report.summary()


class TestMonotonicTiming:
    """Outcome/report timing must go through the shared monotonic clock."""

    def test_api_uses_task_clock(self, monkeypatch):
        import repro.api.task as task_mod

        ticks = iter(range(0, 1000, 1))
        monkeypatch.setattr(task_mod, "clock", lambda: next(ticks))
        session = fresh_session()
        result = session.verify(*TASKS[2])
        # every recorded duration is a difference of fake-clock readings:
        # integral and non-negative, proving the patched source was used
        assert result.elapsed >= 0
        for outcome in result.outcomes:
            assert float(outcome.elapsed).is_integer()

    def test_budget_uses_task_clock(self, monkeypatch):
        import repro.api.task as task_mod
        from repro.api import Budget

        now = [100.0]
        monkeypatch.setattr(task_mod, "clock", lambda: now[0])
        budget = Budget(5.0)
        assert not budget.expired
        assert budget.remaining() == 5.0
        now[0] += 10.0
        assert budget.expired
        assert budget.remaining() == 0.0

    def test_task_result_elapsed_sums_outcomes(self):
        result = fresh_session().verify(*TASKS[1])
        assert result.elapsed == pytest.approx(
            sum(o.elapsed for o in result.outcomes)
        )
