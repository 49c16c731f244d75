"""The CDCL search under its heuristics, and assumption-incremental solving.

- Luby restarts and LBD clause-DB reduction are completeness-preserving
  search heuristics: verdicts must match a plain backtracking reference,
  and both must actually fire on hard instances.
- The assumption-based :class:`~repro.solver.sat.IncrementalSolver`
  behind :class:`~repro.solver.encode.IncrementalEntailment` must agree
  with fresh per-query solves while retaining state across queries.
"""

import random

from repro.assertions.parser import parse_assertion
from repro.checker import Universe
from repro.solver.encode import IncrementalEntailment, entails_sat
from repro.solver.sat import IncrementalSolver, SATSolver
from repro.values import IntRange


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
