"""Session state: parse caches, entailment memoization, batching, report."""

from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.api import Session, VerificationTask, sharding
from repro.api.session import TaskResult
from repro.assertions.sugar import low

GNI_PRE = "forall <a>, <b>. a(l) == b(l)"
GNI_PROG = "y := nonDet(); l := h xor y"
GNI_POST = "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"
LEAK = ("true", "l := h", "forall <a>, <b>. a(l) == b(l)")

BATCH = [
    (GNI_PRE, GNI_PROG, GNI_POST),
    LEAK,
    (GNI_PRE, GNI_PROG, GNI_POST),  # deliberate repeat — must hit the cache
    ("true", "l := 0", "forall <a>. a(l) == 0"),
]


@pytest.fixture
def session():
    return Session(["h", "l", "y"], 0, 1)


class TestParseCaches:
    def test_programs_and_assertions_parse_once(self, session):
        a = session.parse_program(GNI_PROG)
        b = session.parse_program(GNI_PROG)
        assert a is b
        p = session.parse_condition(GNI_PRE)
        q = session.parse_condition(GNI_PRE)
        assert p is q

    def test_objects_pass_through(self, session):
        command = session.parse_program(GNI_PROG)
        assert session.parse_program(command) is command
        assertion = low("l")
        assert session.parse_condition(assertion) is assertion

    def test_task_normalization(self, session):
        task = session.task(LEAK)
        assert isinstance(task, VerificationTask)
        assert session.task(task) is task
        four = session.task((GNI_PRE, GNI_PROG, GNI_POST, GNI_PRE))
        assert four.invariant is not None
        with pytest.raises(TypeError):
            session.task(("just-one",))


class TestEntailmentCache:
    def test_repeat_verify_hits_cache(self, session):
        session.verify(GNI_PRE, GNI_PROG, GNI_POST)
        first = session.cache_info()
        session.verify(GNI_PRE, GNI_PROG, GNI_POST)
        info = session.cache_info()
        assert info["entailment_misses"] == first["entailment_misses"]
        # the outline's one Cons entailment, pre |= wp, repeats
        assert info["entailment_hits"] == first["entailment_hits"] + 1

    def test_valid_straight_line_verify_asks_one_entailment(self, session):
        """The proved outline closes with one Cons step whose post side
        is ``post |= post`` — one object on both sides, never asked — so
        the oracle decides only ``pre |= wp(C, post)``."""
        report = session.verify_many([(GNI_PRE, GNI_PROG, GNI_POST)])
        assert report.results[0].verdict is True
        assert report.results[0].method == "syntactic-wp+sat"
        assert report.counters["entailment_misses"] == 1
        assert report.counters["entailment_hits"] == 0
        assert report.counters["entailment_sat"] == 1

    def test_cached_verdict_still_reports_method(self, session):
        first = session.verify(GNI_PRE, GNI_PROG, GNI_POST)
        second = session.verify(GNI_PRE, GNI_PROG, GNI_POST)
        assert first.method == second.method == "syntactic-wp+sat"

    def test_cache_clear(self, session):
        session.verify(GNI_PRE, GNI_PROG, GNI_POST)
        assert session.oracle.cache_info()["size"] > 0
        session.oracle.cache_clear()
        assert session.oracle.cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_session_entails_is_memoized(self, session):
        assert session.entails("forall <a>. a(l) == 0", "forall <a>, <b>. a(l) == b(l)")
        before = session.cache_info()["entailment_hits"]
        assert session.entails("forall <a>. a(l) == 0", "forall <a>, <b>. a(l) == b(l)")
        assert session.cache_info()["entailment_hits"] == before + 1


class TestVerifyMany:
    def test_batch_verdicts_and_order(self, session):
        report = session.verify_many(BATCH)
        assert [r.verified for r in report] == [True, False, True, True]
        assert len(report) == 4
        assert not report.all_verified
        assert len(report.verified) == 3
        assert len(report.refuted) == 1
        assert report.elapsed > 0

    def test_batch_shares_entailment_cache(self, session):
        report = session.verify_many(BATCH)
        assert report.counters["entailment_hits"] > 0
        # The repeated GNI task must be decided without new misses: its
        # two Cons entailments are already cached by the first instance.
        assert report.results[2].verified
        assert report.results[2].method == "syntactic-wp+sat"

    def test_batch_parallel_matches_sequential(self):
        sequential = Session(["h", "l", "y"], 0, 1).verify_many(BATCH)
        parallel = Session(["h", "l", "y"], 0, 1).verify_many(BATCH, max_workers=4)
        assert [r.verdict for r in sequential] == [r.verdict for r in parallel]
        assert [r.method for r in sequential] == [r.method for r in parallel]

    def test_batch_accepts_task_objects(self, session):
        tasks = [session.task(t, label="t%d" % i) for i, t in enumerate(BATCH)]
        report = session.verify_many(tasks)
        assert "t1" in report.summary()
        assert "refuted" in report.summary()

    def test_report_indexing_and_bool(self, session):
        report = session.verify_many([BATCH[0]])
        assert report[0].verified
        assert bool(report)
        report = session.verify_many([LEAK])
        assert not bool(report)


class TestReportObservability:
    """Per-backend and per-entailment-method decision counts."""

    def test_decided_by_backend_counts_every_task_once(self, session):
        report = session.verify_many(BATCH)
        counts = report.decided_by_backend()
        assert sum(counts.values()) == len(BATCH)
        assert all(count > 0 for count in counts.values())
        assert counts.get("syntactic-wp", 0) >= 3  # the three wp-decided tasks

    def test_undecided_tasks_counted_under_undecided(self, session):
        # a loop without invariant skips wp/loop; zero budgets make the
        # symbolic and exhaustive stages bail out inconclusively
        report = session.verify_many(
            [("true", "while (y > 0) { y := y - 1 }", "forall <a>. a(y) == 0")],
            budgets={"symbolic": 0.0, "exhaustive": 0.0},
        )
        assert report.decided_by_backend() == {"undecided": 1}
        symbolic = [
            o for o in report[0].outcomes if o.backend == "symbolic"
        ]
        assert symbolic and "budget exhausted" in symbolic[0].reason

    def test_summary_names_deciding_backends_and_methods(self, session):
        report = session.verify_many(BATCH)
        summary = report.summary()
        assert "decided by:" in summary
        assert "syntactic-wp" in summary
        assert "entailments:" in summary

    def test_entailment_method_counts_are_batch_deltas(self):
        s = Session(["h", "l", "y"], 0, 1)
        first = s.verify_many(BATCH)
        assert first.counters["entailment_sat"] > 0
        # a repeat batch is answered from the entailment cache: cache
        # hits count under the original deciding method, so the deltas
        # stay attributed to this batch
        second = s.verify_many(BATCH)
        assert second.counters["entailment_sat"] >= 0
        sat = s.oracle.method_counts().get("sat", 0)
        assert sat >= first.counters["entailment_sat"]

    def test_brute_oracle_reports_brute_decisions(self):
        s = Session(["x"], 0, 1, entailment="brute")
        report = s.verify_many([("true", "x := 0", "forall <a>. a(x) == 0")])
        assert report.counters["entailment_brute"] > 0
        assert report.counters["entailment_sat"] == 0

    def test_report_counts_round_trip_on_the_wire(self, session):
        from repro.codec import from_wire

        report = session.verify_many(BATCH)
        decoded = from_wire(report.to_wire())
        for name in ("entailment_sat", "entailment_brute"):
            assert decoded.counters[name] == report.counters[name]
        assert decoded.decided_by_backend() == report.decided_by_backend()
        assert decoded.counters == report.counters


def _zero_elapsed(report):
    """``report`` with every timing zeroed, so its summary is stable."""
    results = tuple(
        TaskResult(r.task, tuple(o.with_elapsed(0.0) for o in r.outcomes))
        for r in report.results
    )
    return replace(report, results=results, elapsed=0.0)


class _InlinePool:
    """A stand-in for the shard ``ProcessPoolExecutor`` that runs every
    chunk in this process on a freshly initialized worker session and
    keeps each chunk's counter delta."""

    def __init__(self, max_workers, initializer, initargs):
        self.initializer = initializer
        self.initargs = initargs
        self.deltas = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.initializer(*self.initargs)
        rows, delta = fn(*args)
        self.deltas.append(delta)
        future = Future()
        future.set_result((rows, delta))
        return future


class TestReportCounters:
    """``Report.counters``: one delta of :meth:`Session.counters`."""

    def test_summary_text_is_pinned(self, session):
        loop = ("true", "while (y > 0) { y := y - 1 }", "forall <a>. a(y) == 1")
        batch = [BATCH[0], loop, BATCH[2], BATCH[3]]
        report = _zero_elapsed(session.verify_many(batch))
        assert report.summary() == "\n".join([
            "report: 3 verified, 1 refuted, 0 undecided in 0.000s (entailment "
            "cache: 1 hits, 2 misses; image cache: 0 hits, 8 misses, 0 "
            "evictions; mask tier: 0 hits, 0 misses)",
            "  decided by: symbolic: 1, syntactic-wp: 3; entailments: 3 sat, "
            "0 brute",
            "  incremental: 0 fingerprint hits, 0 cone invalidations, 1 "
            "artifacts reused",
            "  task 0               verified  via syntactic-wp+sat       0.000s",
            "  task 1               refuted   via sat-validity           0.000s",
            "  task 2               verified  via syntactic-wp+sat       0.000s",
            "  task 3               verified  via syntactic-wp+sat       0.000s",
        ])
        old = session.parse_program("l := 0")
        edited = batch[:3] + [("true", "l := 1", "forall <a>. a(l) == 1")]
        report = _zero_elapsed(session.reverify(edited, changed=[old]))
        assert report.summary().splitlines()[:3] == [
            "report: 3 verified, 1 refuted, 0 undecided in 0.000s (entailment "
            "cache: 0 hits, 1 misses; image cache: 0 hits, 0 misses, 0 "
            "evictions; mask tier: 0 hits, 0 misses)",
            "  decided by: symbolic: 1, syntactic-wp: 3; entailments: 1 sat, "
            "0 brute",
            "  incremental: 3 fingerprint hits, 1 cone invalidations, 0 "
            "artifacts reused",
        ]

    def test_cache_info_is_counters_plus_size_gauges(self, session):
        session.verify_many(BATCH)
        counters = session.counters()
        info = session.cache_info()
        assert {k: info[k] for k in counters} == counters
        assert set(info) - set(counters) == {
            "entailment_size", "image_size", "image_mask_size",
            "compile_size", "programs", "assertions",
        }
        assert all(isinstance(v, int) for v in info.values())

    def test_inline_and_sharded_counters_share_their_keys(self, session):
        inline = session.verify_many(BATCH)
        sharded = Session(["h", "l", "y"], 0, 1).verify_many(
            BATCH, sharding="process", shards=2
        )
        assert set(inline.counters) == set(sharded.counters)
        assert set(inline.counters) == set(session.counters())
        assert sharded.counters["entailment_misses"] > 0

    def test_sharded_counters_sum_the_shard_deltas(self, session, monkeypatch):
        pools = []

        def pool(**kwargs):
            pools.append(_InlinePool(**kwargs))
            return pools[-1]

        monkeypatch.setattr(sharding, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(sharding, "_WORKER_SESSION", None)
        report = session.verify_many(BATCH, sharding="process", shards=2)
        (deltas,) = [p.deltas for p in pools]
        assert len(deltas) == 2
        assert all(set(d) == set(session.counters()) for d in deltas)
        assert report.counters == {
            name: sum(d[name] for d in deltas) for name in deltas[0]
        }
        assert all(d["entailment_misses"] > 0 for d in deltas)


class TestDisprove:
    def test_disprove_both_directions(self, session):
        disproof = session.disprove("true", "l := h", "forall <a>, <b>. a(l) == b(l)")
        assert disproof is not None
        assert len(disproof.witness) > 0
        assert (
            session.disprove("true", "l := 0", "forall <a>, <b>. a(l) == b(l)")
            is None
        )

    def test_disprove_constructs_proof_on_demand(self):
        s = Session(["h", "l"], 0, 1)
        disproof = s.disprove(
            "true", "l := h", "forall <a>, <b>. a(l) == b(l)", construct_proof=True
        )
        assert disproof.proof is not None


class TestSessionConfig:
    def test_brute_entailment_method_is_reported(self):
        s = Session(["x"], 0, 1, entailment="brute")
        result = s.verify("true", "x := 0", "forall <a>. a(x) == 0")
        assert result.verified
        assert result.method == "syntactic-wp+brute"

    def test_repr_names_backends(self, session):
        assert "syntactic-wp" in repr(session)
        assert "exhaustive" in repr(session)
