"""Incremental re-verification: the ledger, the cone, the counters.

``Session.reverify`` must be *invisible* semantically — same verdicts,
proofs and witnesses as a cold ``verify_many`` — while reusing stored
outcomes for unchanged tasks.  These tests pin the reuse accounting
(the ``fingerprint_hits`` / ``cone_invalidations`` counters and the
``artifacts reused`` figure of the summary),
the ``changed=`` cone drop, the configuration sensitivity of ledger
keys, the semantic-assertion fallback, and the :meth:`Session.reset`
contract (a reset session re-verifies exactly like a cold one).
"""

import pytest

from repro.api.session import Report, Session
from repro.assertions.semantic import sem
from repro.codec import from_wire, to_wire
from repro.deps import cone_test

SUITE = [
    ("forall <a>, <b>. a(l) == b(l)",
     "y := nonDet(); l := h xor y",
     "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"),
    ("forall <a>. a(l) == 0", "l := 0", "forall <a>. a(l) == 0"),
    ("exists <a>. a(h) == 1", "l := h", "exists <a>. a(l) == 1"),
    ("true", "l := h", "forall <a>, <b>. a(l) == b(l)"),
]


@pytest.fixture
def session():
    return Session(["h", "l", "y"], lo=0, hi=1)


def cold_report(tasks, **kwargs):
    return Session(["h", "l", "y"], lo=0, hi=1).verify_many(tasks, **kwargs)


def artifacts_reused(report):
    """Subtree-level cache hits, the figure ``Report.summary()`` prints."""
    names = ("entailment_hits", "image_hits", "compile_hits")
    return sum(report.counters.get(name, 0) for name in names)


class TestReuse:
    def test_unchanged_suite_is_fully_reused(self, session):
        first = session.verify_many(SUITE)
        again = session.reverify(SUITE)
        assert again.counters["fingerprint_hits"] == len(SUITE)
        assert again.counters["cone_invalidations"] == 0
        assert [r.verdict for r in again] == [r.verdict for r in first]
        assert [r.method for r in again] == [r.method for r in first]
        # reused results are the ledger'd objects — nothing re-ran
        assert all(a is b for a, b in zip(first.results, again.results))

    def test_edit_one_task_reruns_only_it(self, session):
        session.verify_many(SUITE)
        old_cmd = session.parse_program(SUITE[1][1])
        edited = list(SUITE)
        edited[1] = (SUITE[1][0], "l := 1", SUITE[1][2])
        report = session.reverify(edited, changed=[old_cmd])
        assert report.counters["fingerprint_hits"] == len(SUITE) - 1
        assert report.counters["cone_invalidations"] > 0
        cold = cold_report(edited)
        assert set(report.counters) == set(cold.counters)
        assert [r.verdict for r in report] == [r.verdict for r in cold]
        assert [r.method for r in report] == [r.method for r in cold]

    def test_cold_session_reverify_is_just_verify(self, session):
        report = session.reverify(SUITE)
        assert report.counters["fingerprint_hits"] == 0
        cold = cold_report(SUITE)
        assert [r.verdict for r in report] == [r.verdict for r in cold]

    def test_reverify_without_changed_still_reuses(self, session):
        session.verify_many(SUITE)
        edited = list(SUITE)
        edited[0] = ("true", SUITE[0][1], SUITE[0][2])
        report = session.reverify(edited)
        # content addressing needs no edit declaration for correctness:
        # the edited task misses, the rest hit
        assert report.counters["fingerprint_hits"] == len(SUITE) - 1
        assert report.counters["cone_invalidations"] == 0
        assert [r.verdict for r in report] == [
            r.verdict for r in cold_report(edited)
        ]


class TestConeInvalidation:
    def test_changed_drops_the_ledger_entry(self, session):
        session.verify_many(SUITE)
        before = len(session._ledger)
        old_cmd = session.parse_program(SUITE[1][1])
        dropped = session.invalidate([old_cmd])
        assert dropped > 0
        assert len(session._ledger) == before - 1

    def test_changed_accepts_raw_fingerprints(self, session):
        from repro.deps import fingerprint

        session.verify_many(SUITE)
        old_cmd = session.parse_program(SUITE[1][1])
        report = session.reverify(SUITE, changed=[fingerprint(old_cmd)])
        # the task itself was not edited, so after the cone drop it
        # simply re-runs and re-ledgers — N-1 hits, same verdicts
        assert report.counters["fingerprint_hits"] == len(SUITE) - 1
        assert report.counters["cone_invalidations"] > 0

    def test_editing_a_shared_subtree_invalidates_all_containers(self):
        session = Session(["h", "l", "y"], lo=0, hi=1)
        shared = [
            ("forall <a>. a(l) == 0", "l := 0", "forall <a>. a(l) == 0"),
            ("true", "l := 0", "exists <a>. a(l) == 0"),
        ]
        session.verify_many(shared)
        old_cmd = session.parse_program("l := 0")
        report = session.reverify(shared, changed=[old_cmd])
        # both tasks contain the changed subtree: neither may be reused
        # from a stale ledger after its declared edit
        assert report.counters["fingerprint_hits"] == 0

    def test_semantic_changed_items_are_skipped(self, session):
        session.verify_many(SUITE)
        dropped = session.invalidate([sem(lambda s: True)])
        assert dropped == 0


class TestLedgerKeys:
    def test_budget_change_is_never_a_false_hit(self, session):
        session.verify_many(SUITE)
        report = session.reverify(SUITE, budgets={"exhaustive": 30.0})
        assert report.counters["fingerprint_hits"] == 0

    def test_backend_chain_change_is_never_a_false_hit(self, session):
        from repro.api.backends import ExhaustiveBackend

        session.verify_many(SUITE)
        report = session.reverify(SUITE, backends=[ExhaustiveBackend()])
        assert report.counters["fingerprint_hits"] == 0

    def test_literal_types_are_never_a_false_hit(self, session):
        from repro.assertions.syntax import HLit, forall_s, pv

        def task(value):
            post = forall_s("a", pv("a", "l").eq(HLit(value)))
            return session.task("true", "l := 1", post)

        for first, second in ((1, True), (True, 1)):
            session.reset()
            session.verify_many([task(first)])
            report = session.reverify([task(second)])
            # 1 == True in Python, but the tasks differ: the result
            # (and its wire document) must carry the second literal
            assert report.counters["fingerprint_hits"] == 0
            literal = report.results[0].task.post.body.right.value
            assert type(literal) is type(second)

    def test_semantic_tasks_always_rerun(self, session):
        suite = [
            (sem(lambda states: bool(states)), "l := 0", sem(lambda states: True)),
        ]
        first = session.verify_many(suite)
        again = session.reverify(suite)
        assert again.counters["fingerprint_hits"] == 0
        assert [r.verdict for r in again] == [r.verdict for r in first]


class TestReset:
    def test_reset_reverifies_like_a_cold_run(self, session):
        session.verify_many(SUITE)
        session.reset()
        report = session.reverify(SUITE)
        assert report.counters["fingerprint_hits"] == 0
        # the fresh run refilled the caches: an edit has a cone again
        assert session.invalidate([session.parse_program("l := h")]) > 0
        cold = cold_report(SUITE)
        assert [r.verdict for r in report] == [r.verdict for r in cold]
        assert [r.method for r in report] == [r.method for r in cold]

    def test_reset_empties_every_cache(self, session):
        session.verify_many(SUITE)
        assert len(session._ledger) > 0
        session.reset()
        assert len(session._ledger) == 0
        assert session.cache_info()["entailment_size"] == 0
        assert session.cache_info()["image_size"] == 0
        assert session.cache_info()["compile_size"] == 0
        assert session.invalidate(every_subtree(session)) == 0

    def test_cleared_caches_invalidate_nothing(self, session):
        session.verify_many(SUITE)
        every = every_subtree(session)
        session.oracle.cache_clear()
        session.images.clear()
        session.compiles.clear()
        in_cone = cone_test(every)
        assert session.oracle.invalidate(in_cone) == 0
        assert session.images.invalidate(in_cone) == 0
        assert session.compiles.invalidate(in_cone) == 0
        # only the ledger still holds a cone: one result per task
        assert session.invalidate(every) == len(SUITE)


def every_subtree(session):
    """The pre, command and post of every SUITE task."""
    tasks = [session.task(t) for t in SUITE]
    return [part for t in tasks for part in (t.pre, t.command, t.post)]


class TestExactCone:
    """The cone of an edit, artifact for artifact, after one warm run."""

    def sizes(self, session):
        info = session.cache_info()
        return {
            "results": len(session._ledger),
            "entailments": info["entailment_size"],
            "images": info["image_size"],
            "compiles": info["compile_size"],
        }

    def dropped(self, session, changed):
        session.verify_many(SUITE)
        before = self.sizes(session)
        count = session.invalidate(changed)
        after = self.sizes(session)
        return count, {k: before[k] - after[k] for k in before}

    def test_command_cone(self, session):
        # `l := h`: its 8 image rows (one per initial state), its
        # compiled closure and the two tasks that run it
        count, by_cache = self.dropped(session, [session.parse_program("l := h")])
        assert count == 11
        assert by_cache == {
            "results": 2, "entailments": 0, "images": 8, "compiles": 1,
        }

    def test_assertion_cone(self, session):
        # SUITE[3]'s post is also SUITE[0]'s pre: both results go, with
        # the one verdict and the one compiled evaluator that mention it
        count, by_cache = self.dropped(
            session, [session.parse_condition(SUITE[3][2])]
        )
        assert count == 4
        assert by_cache == {
            "results": 2, "entailments": 1, "images": 0, "compiles": 1,
        }


class TestCounters:
    def test_report_counters_round_trip_the_codec(self):
        report = Report(
            (), counters={"fingerprint_hits": 3, "cone_invalidations": 2,
                          "compile_hits": 7}
        )
        decoded = from_wire(to_wire(report))
        assert decoded == report
        assert decoded.counters["fingerprint_hits"] == 3
        assert decoded.counters["cone_invalidations"] == 2
        assert artifacts_reused(decoded) == 7
        assert "7 artifacts reused" in decoded.summary()

    def test_summary_mentions_the_incremental_line(self, session):
        session.verify_many(SUITE)
        report = session.reverify(SUITE)
        assert "incremental: %d fingerprint hits" % len(SUITE) in report.summary()

    def test_artifacts_reused_counts_subtree_hits(self, session):
        session.verify_many(SUITE)
        edited = list(SUITE)
        edited[0] = (SUITE[0][0], SUITE[0][1] + "; skip", SUITE[0][2])
        report = session.reverify(edited)
        # the re-run task keeps its pre and post and its wp: the outline
        # entailment pre |= wp must hit
        assert report.counters["fingerprint_hits"] == len(SUITE) - 1
        assert artifacts_reused(report) > 0

    def test_sharded_report_aggregates_artifacts_reused(self, session):
        # two shards, each repeating a command across its chunk: the
        # per-worker compile/image/entailment hits must flow back
        suite = SUITE * 2
        report = session.verify_many(suite, sharding="process", shards=2)
        assert artifacts_reused(report) > 0
        assert report.counters["fingerprint_hits"] == 0  # plain batches never claim reuse
        decoded = from_wire(to_wire(report))
        assert artifacts_reused(decoded) == artifacts_reused(report)
