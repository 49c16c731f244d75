"""The intra-task partitioned scan and its solver substrate.

Two layers under test, both with exact-equality obligations:

- :mod:`repro.checker.parallel` — the partitioned mask-space scan must
  be *byte-identical* to the serial engine: verdict, witness and
  ``checked_sets``, including which counterexample is canonical when
  refutations live in different blocks.  The property tests drive both
  engines over randomized triples; the planted-refutation tests pin the
  early-block and last-candidate extremes of the merge; the
  cancellation test asserts the lowest-index-wins merge actually
  revokes later blocks (the counters are the observable).
- :mod:`repro.solver.sat` — Luby restarts and LBD clause-DB reduction
  are completeness-preserving search heuristics (verdicts must match a
  plain backtracking reference, and both must actually fire on hard
  instances), and the assumption-based
  :class:`~repro.solver.sat.IncrementalSolver` behind
  :class:`~repro.solver.encode.IncrementalEntailment` must agree with
  fresh per-query solves while retaining state across queries.
"""

import gc
import multiprocessing
import random
import time
import weakref

import pytest
from hypothesis import given, settings

from repro.api import Session
from repro.api.backends import ExhaustiveBackend
from repro.api.sharding import SessionSpec
from repro.checker import CheckerEngine, ImageCache, Universe
from repro.compile.cache import CompileCache
from repro.lang import parse_command
from repro.assertions.parser import parse_assertion
from repro.solver.encode import IncrementalEntailment, entails_sat
from repro.solver.sat import IncrementalSolver, SATSolver
from repro.values import IntRange

from tests.strategies import HI, LO, VARS, commands, hyper_assertions


def assert_identical(parallel, serial):
    """The partitioned scan's full byte-identity obligation."""
    assert parallel.valid == serial.valid
    assert parallel.witness_pre == serial.witness_pre
    assert parallel.witness_post == serial.witness_post
    assert parallel.checked_sets == serial.checked_sets


@pytest.fixture(scope="module")
def engines():
    """A serial engine and a 2-worker parallel twin over shared caches.

    Module-scoped on purpose: the parallel engine owns a process pool
    (and a shared cut index), and spawning one per Hypothesis example
    would dominate the suite's runtime without testing anything extra.
    ``parallel_min_candidates=0`` forces the partitioned path onto every
    eligible scan — test universes sit far below the production cutoff.
    """
    universe = Universe(list(VARS), IntRange(LO, HI))
    images = ImageCache()
    compiles = CompileCache()
    serial = CheckerEngine(universe, images, compile_cache=compiles)
    parallel = CheckerEngine(
        universe,
        images,
        compile_cache=compiles,
        parallel=2,
        parallel_min_candidates=0,
    )
    yield serial, parallel
    parallel.close()


class TestParallelMatchesSerial:
    @settings(max_examples=40, deadline=None)
    @given(
        command=commands(max_depth=2),
        pre=hyper_assertions(max_depth=2),
        post=hyper_assertions(max_depth=2),
    )
    def test_check_parity(self, engines, command, pre, post):
        serial, parallel = engines
        assert_identical(
            parallel.check(pre, command, post), serial.check(pre, command, post)
        )

    def test_refutation_in_the_first_block(self, engines):
        """``false`` refutes at candidate 0 — the earliest possible index."""
        serial, parallel = engines
        pre = parse_assertion("true")
        post = parse_assertion("false")
        command = parse_command("skip")
        result = parallel.check(pre, command, post)
        assert_identical(result, serial.check(pre, command, post))
        assert not result.valid
        assert result.checked_sets == 1  # canonical witness: the empty set

    def test_refutation_in_the_last_block(self, engines):
        """A post refuted only by the full universe — the *last* candidate.

        ``some state is missing`` holds for every proper subset and
        fails exactly on the full universe, which the size-ordered
        enumeration visits last; the merge must wait for the final
        block instead of accepting a nearer non-witness.
        """
        serial, parallel = engines
        universe = serial.universe
        states = universe.ext_states()
        missing = " || ".join(
            "(forall <a>. a(x) != %d || a(y) != %d)" % (u.pvar("x"), u.pvar("y"))
            for u in states
        )
        pre = parse_assertion("true")
        post = parse_assertion(missing)
        command = parse_command("skip")
        result = parallel.check(pre, command, post)
        assert_identical(result, serial.check(pre, command, post))
        assert not result.valid
        assert result.witness_pre == frozenset(states)
        assert result.checked_sets == 2 ** len(states)

    def test_lowest_index_refutation_wins(self, engines):
        """Refutations in several blocks must merge to the serial witness.

        ``exists <a>. a(x) == a(y)`` fails on *many* candidates (every
        nonempty set avoiding the diagonal), scattered across blocks;
        the canonical witness is still the serial scan's first one.
        """
        serial, parallel = engines
        pre = parse_assertion("true")
        post = parse_assertion("exists <a>. a(x) == a(y)")
        command = parse_command("skip")
        assert_identical(
            parallel.check(pre, command, post), serial.check(pre, command, post)
        )

    def test_cancellation_revokes_later_blocks(self, engines):
        """An early refutation must cancel blocks after it (counters).

        The revocation of queued futures races OS scheduling, so one
        scan is not guaranteed to cancel anything on a loaded machine;
        repeating the scan makes a zero count a machine-checkable bug
        (the merge never cancelling) rather than a scheduling accident.
        """
        _, parallel = engines
        scanner = parallel._parallel_scanner()
        pre = parse_assertion("true")
        post = parse_assertion("false")
        command = parse_command("skip")
        before = scanner.stats()["cancelled"]
        for _ in range(20):
            result = parallel.check(pre, command, post)
            assert not result.valid and result.checked_sets == 1
            if scanner.stats()["cancelled"] > before:
                break
        assert scanner.stats()["cancelled"] > before
        assert scanner.stats()["blocks"] > 0

    def test_ineligible_scans_fall_back_to_serial(self, engines):
        """A pinned ``EqualsSet`` pre (one candidate) must decline cleanly."""
        from repro.assertions.semantic import EqualsSet

        serial, parallel = engines
        states = serial.universe.ext_states()
        pre = EqualsSet(frozenset(states[:2]))
        post = parse_assertion("forall <a>. a(x) >= 0")
        command = parse_command("skip")
        blocks = parallel._parallel_scanner().stats()["blocks"]
        assert_identical(
            parallel.check(pre, command, post), serial.check(pre, command, post)
        )
        # the scan must not have been partitioned
        assert parallel._parallel_scanner().stats()["blocks"] == blocks


class TestSessionPlumbing:
    def test_session_exposes_parallel_counters(self):
        """An eligible oracle scan surfaces the counters in the report."""
        session = Session(
            ["x", "y"],
            lo=0,
            hi=1,
            backends=(ExhaustiveBackend(),),
            intra_task_workers=2,
        )
        session.engine.parallel_min_candidates = 0
        try:
            report = session.verify_many(
                [("true", "x := nonDet()", "forall <a>. a(x) >= 0")]
            )
            assert report.all_verified
            assert report.counters["parallel_blocks"] > 0
            assert report.counters["parallel_scan_states"] > 0
            assert "parallel:" in report.summary()
        finally:
            session.close()

    def test_parallel_session_matches_serial_session(self):
        tasks = [
            ("forall <a>. a(x) >= 0", "x := x + 1", "forall <a>. a(x) >= 1"),
            ("true", "x := nonDet()", "exists <a>. a(x) == 99"),
            ("true", "skip", "exists <a>. a(x) == a(y)"),
        ]
        serial = Session(["x", "y"], lo=0, hi=1, backends=(ExhaustiveBackend(),))
        parallel = Session(
            ["x", "y"],
            lo=0,
            hi=1,
            backends=(ExhaustiveBackend(),),
            intra_task_workers=2,
        )
        parallel.engine.parallel_min_candidates = 0
        try:
            for mine, theirs in zip(
                serial.verify_many(tasks), parallel.verify_many(tasks)
            ):
                assert mine.verdict == theirs.verdict
                assert mine.outcome.witness == theirs.outcome.witness
        finally:
            parallel.close()

    def test_closed_scanner_is_collectable(self):
        """A closed scanner, its engine and its session are collectable.
        The pool is built but never handed work, so no worker process
        starts."""
        session = Session(["x", "y"], lo=0, hi=1, intra_task_workers=2)
        scanner = session.engine._parallel_scanner()
        scanner._ensure_pool()
        scanner_ref = weakref.ref(scanner)
        session_ref = weakref.ref(session)
        session.close()
        del scanner, session
        gc.collect()
        assert scanner_ref() is None
        assert session_ref() is None

    def test_dropped_session_stops_its_workers(self):
        """A session dropped without ``close()`` after a partitioned scan
        is collected, and collecting it shuts its pool's workers down."""
        before = set(multiprocessing.active_children())
        session = Session(
            ["x", "y"],
            lo=0,
            hi=1,
            backends=(ExhaustiveBackend(),),
            intra_task_workers=2,
        )
        session.engine.parallel_min_candidates = 0
        report = session.verify_many(
            [("true", "x := nonDet()", "forall <a>. a(x) >= 0")]
        )
        assert report.counters["parallel_blocks"] > 0
        workers = set(multiprocessing.active_children()) - before
        assert workers
        session_ref = weakref.ref(session)
        engine_ref = weakref.ref(session.engine)
        del session, report
        gc.collect()
        assert session_ref() is None
        assert engine_ref() is None
        deadline = time.monotonic() + 30
        while any(w.is_alive() for w in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(w.is_alive() for w in workers)

    def test_spec_round_trips_intra_task_workers(self):
        session = Session(["x", "y"], lo=0, hi=1, intra_task_workers=3)
        spec = SessionSpec.of(session)
        assert spec.intra_task_workers == 3
        rebuilt = spec.build()
        assert rebuilt.intra_task_workers == 3
        assert rebuilt.engine.parallel == 3

    def test_composes_with_process_sharding(self, monkeypatch):
        """``intra_task_workers`` inside ``sharding="process"`` shards.

        Shard workers fork after the monkeypatch, so dropping the class
        cutoff makes their sessions' nested partitioned scans engage on
        these small tasks; the sharded report must still match a plain
        inline session, witnesses included, and the shard-aggregated
        parallel counters must show the nested pools actually ran.
        """
        monkeypatch.setattr(CheckerEngine, "PARALLEL_MIN_CANDIDATES", 0)
        tasks = [
            ("true", "x := nonDet()", "forall <a>. a(x) >= 0"),
            ("true", "skip", "exists <a>. a(x) == a(y)"),
            ("forall <a>. a(x) >= 0", "x := x + 1", "forall <a>. a(x) >= 1"),
            ("true", "x := nonDet()", "exists <a>. a(x) == 99"),
        ]
        inline = Session(["x", "y"], lo=0, hi=1).verify_many(tasks)
        session = Session(["x", "y"], lo=0, hi=1, intra_task_workers=2)
        report = session.verify_many(tasks, sharding="process", shards=2)
        assert [r.verdict for r in report] == [r.verdict for r in inline]
        assert [r.outcome.witness for r in report] == [
            r.outcome.witness for r in inline
        ]
        assert report.counters["parallel_blocks"] > 0


class TestRestartAndReductionInvariance:
    """Restarts and clause deletion may move the search, never the verdict."""

    @staticmethod
    def random_cnf(rng, num_vars=25, num_clauses=105):
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            lits = rng.sample(range(1, num_vars + 1), size)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
        return clauses, num_vars

    @staticmethod
    def satisfies(clauses, model):
        return all(
            any(model.get(abs(l), False) == (l > 0) for l in clause)
            for clause in clauses
        )

    @staticmethod
    def backtracking_sat(clauses, num_vars):
        """Plain chronological backtracking over ``1..num_vars`` in order:
        the reference the CDCL search must agree with.  A clause is
        checked once its largest variable is assigned."""
        by_last = [[] for _ in range(num_vars + 1)]
        for clause in clauses:
            by_last[max((abs(l) for l in clause), default=0)].append(clause)
        assign = {}

        def search(var):
            if var > num_vars:
                return True
            for value in (False, True):
                assign[var] = value
                if all(
                    any(assign[abs(l)] == (l > 0) for l in clause)
                    for clause in by_last[var]
                ) and search(var + 1):
                    return True
            return False

        return not by_last[0] and search(1)

    def test_verdicts_match_backtracking_reference(self):
        """The seeded CNFs are all UNSAT (their unit clauses clash), so
        each is checked again without its units, which leaves some SAT
        and puts the models to the test too."""
        rng = random.Random(42)
        verdicts = []
        for _ in range(25):
            clauses, num_vars = self.random_cnf(rng)
            wide = [clause for clause in clauses if len(clause) > 1]
            for cnf in (clauses, wide):
                model = SATSolver(cnf, num_vars).solve()
                assert (model is not None) == self.backtracking_sat(cnf, num_vars)
                if model is not None:
                    assert self.satisfies(cnf, model)
                verdicts.append(model is not None)
        assert len(set(verdicts)) == 2

    def test_restarts_fire_on_pigeonhole(self):
        """Six pigeons in five holes: UNSAT by the pigeonhole principle,
        and hard enough for resolution that the Luby schedule restarts."""
        pigeons, holes = 6, 5

        def var(pigeon, hole):
            return pigeon * holes + hole + 1

        clauses = [
            tuple(var(p, h) for h in range(holes)) for p in range(pigeons)
        ]
        for h in range(holes):
            for a in range(pigeons):
                for b in range(a + 1, pigeons):
                    clauses.append((-var(a, h), -var(b, h)))
        solver = SATSolver(clauses, pigeons * holes)
        assert solver.solve() is None
        assert solver.stats["restarts"] > 0

    def test_restart_and_deletion_counters_engage(self):
        """A conflict-heavy instance must actually exercise the machinery.

        Random 3-SAT at the ~4.27 clause/variable phase-transition ratio;
        150 variables is deep enough into the hard regime to force
        thousands of conflicts, so both the Luby restart schedule and the
        LBD clause-DB reduction visibly fire.
        """
        rng = random.Random(13)
        num_vars, num_clauses = 150, 640
        clauses = []
        for _ in range(num_clauses):
            lits = rng.sample(range(1, num_vars + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
        solver = SATSolver(clauses, num_vars)
        model = solver.solve()
        if model is not None:
            assert self.satisfies(clauses, model)
        assert solver.stats["restarts"] > 0
        assert solver.stats["learned_deleted"] > 0


class TestIncrementalSolving:
    def test_assumptions_agree_with_fresh_solves(self):
        """Assumption queries vs a fresh solver with the assumption as units."""
        rng = random.Random(9)
        answers = {True: 0, False: 0}
        for _ in range(20):
            clauses, num_vars = self.random_cnf(rng)
            inc = IncrementalSolver()
            inc.ensure_vars(num_vars)
            for clause in clauses:
                inc.add_clause(clause)
            for _ in range(6):
                lit = rng.choice(range(1, num_vars + 1))
                lit = lit if rng.random() < 0.5 else -lit
                fresh = SATSolver(clauses + [(lit,)], num_vars)
                model = inc.solve(assumptions=(lit,))
                assert (model is None) == (fresh.solve() is None)
                answers[model is not None] += 1
                if model is not None:
                    assert model.get(abs(lit), False) == (lit > 0)
                    assert TestRestartAndReductionInvariance.satisfies(
                        clauses, model
                    )
        # both answers must occur, or the comparison checks nothing:
        # seeded this way, 36 of the 120 queries are SAT
        assert answers[True] >= 20 and answers[False] >= 20

    @staticmethod
    def random_cnf(rng):
        """A random 3-CNF without its unit clauses: random unit clauses
        clash at the root and make nearly every instance UNSAT."""
        clauses, num_vars = TestRestartAndReductionInvariance.random_cnf(rng)
        return [clause for clause in clauses if len(clause) > 1], num_vars

    def test_clauses_added_between_queries(self):
        """Root clauses added mid-life constrain all later queries."""
        inc = IncrementalSolver()
        inc.ensure_vars(3)
        inc.add_clause((1, 2))
        assert inc.solve(assumptions=(-1,)) is not None
        inc.add_clause((-2,))
        model = inc.solve(assumptions=(-1,))
        assert model is None  # -1 forces 2 via (1,2), contradicting (-2,)
        assert inc.solve() is not None  # database itself is still SAT

    def test_incremental_entailment_matches_fresh(self):
        universe = Universe(["x", "y"], IntRange(0, 1))
        states = tuple(sorted(universe.ext_states(), key=repr))
        pool = [
            parse_assertion(text)
            for text in [
                "forall <a>. a(x) >= 0",
                "exists <a>. a(x) == a(y)",
                "forall <a>. exists <b>. b(x) == a(y)",
                "exists <a>. exists <b>. a(x) != b(x)",
                "true",
                "false",
                "forall v. exists <a>. a(x) == v",
            ]
        ]
        oracle = IncrementalEntailment(states, universe.domain)
        rng = random.Random(3)
        for _ in range(120):
            pre, post = rng.choice(pool), rng.choice(pool)
            assert oracle.entails(pre, post) == entails_sat(
                pre, post, states, universe.domain
            )
        assert oracle.queries == 120

    def test_oracle_sat_method_uses_incremental_backend(self):
        from repro.assertions.entail import EntailmentOracle, entails

        universe = Universe(["x", "y"], IntRange(0, 1))
        states = universe.ext_states()
        oracle = EntailmentOracle(states, universe.domain, method="sat")
        pre = parse_assertion("forall <a>. a(x) >= 1")
        post = parse_assertion("forall <a>. a(x) >= 0")
        assert oracle.entails(pre, post)
        assert oracle.entails(pre, post) == entails(
            pre, post, states, universe.domain
        )
        backend = oracle._incremental
        assert backend is not None and backend.queries >= 2
        assert oracle.method_counts().get("sat", 0) >= 2
