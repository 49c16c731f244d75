"""The CDCL kernel on binary-heavy, incrementally solved CNFs.

Grounded entailment queries reach :class:`~repro.solver.sat.IncrementalSolver`
as Tseitin definitions, most of them binary clauses, solved one query
after another under assumptions.  This battery builds CNFs of that
shape, with extra binary constraints so the search meets conflicts and
learns binary clauses of its own, and checks every answer: each model
against every clause and assumption, each verdict against the
backtracking reference and a fresh :class:`~repro.solver.sat.SATSolver`.
"""

import random

from repro.solver.sat import IncrementalSolver, SATSolver

from tests.solver.test_sat_search import TestRestartAndReductionInvariance as Reference


def tseitin_like(rng, inputs=6, gates=12, extra=8):
    """``(clauses, num_vars)``: AND/OR gates over earlier variables,
    Tseitin-defined (two binary clauses and one ternary each), plus
    ``extra`` random binary constraints and one ternary."""
    clauses = []
    for gate in range(inputs + 1, inputs + gates + 1):
        a, b = (v if rng.random() < 0.5 else -v for v in rng.sample(range(1, gate), 2))
        if rng.random() < 0.5:  # gate <-> a & b
            clauses += [(-gate, a), (-gate, b), (gate, -a, -b)]
        else:  # gate <-> a | b
            clauses += [(gate, -a), (gate, -b), (-gate, a, b)]
    num_vars = inputs + gates
    for size in [2] * extra + [3]:
        picked = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
    return clauses, num_vars


def random_assumptions(rng, num_vars):
    picked = rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
    return tuple(v if rng.random() < 0.5 else -v for v in picked)


def check_answer(clauses, num_vars, assumptions, model):
    """The model satisfies everything, and the verdict is the
    reference's and a fresh solver's."""
    units = [(lit,) for lit in assumptions]
    expected = Reference.backtracking_sat(clauses + units, num_vars)
    assert (model is not None) == expected
    assert (SATSolver(clauses + units, num_vars).solve() is not None) == expected
    if model is not None:
        assert sorted(model) == list(range(1, num_vars + 1))
        assert Reference.satisfies(clauses + units, model)


class TestBinaryHeavyKernel:
    def test_incremental_answers_are_checked_models(self):
        """Clauses arrive in two halves with solves in between; every
        answer is checked, both verdicts occur, and the search learns
        binary clauses (which go to the implication lists)."""
        rng = random.Random(27)
        verdicts = {True: 0, False: 0}
        conflicts = learned_binary = 0
        for _ in range(80):
            clauses, num_vars = tseitin_like(rng)
            rng.shuffle(clauses)
            solver = IncrementalSolver()
            solver.ensure_vars(num_vars)
            half = len(clauses) // 2
            for batch, loaded in ((clauses[:half], clauses[:half]),
                                  (clauses[half:], clauses)):
                for clause in batch:
                    solver.add_clause(clause)
                for _ in range(4):
                    assumptions = random_assumptions(rng, num_vars)
                    model = solver.solve(assumptions=assumptions)
                    check_answer(loaded, num_vars, assumptions, model)
                    verdicts[model is not None] += 1
            conflicts += solver.stats["conflicts"]
            learned_binary += sum(len(clause) == 2 for clause in solver.learned)
        # seeded this way: 405 SAT and 235 UNSAT answers, 124 conflicts,
        # 16 learned binary clauses
        assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts
        assert conflicts >= 100 and learned_binary >= 10, (conflicts, learned_binary)

    def test_one_shot_solver_on_the_same_shape(self):
        """Without assumptions, with root pure literals fixed first."""
        rng = random.Random(5)
        for _ in range(40):
            clauses, num_vars = tseitin_like(rng, extra=12)
            check_answer(clauses, num_vars, (), SATSolver(clauses, num_vars).solve())

    def test_heap_stays_bounded_over_alternating_solves(self):
        """A solve rebuilds the decision heap instead of re-pushing every
        variable at its end, so the heap cannot grow with the number of
        solves: after each of 1,000 alternating SAT and UNSAT solves, and
        of 1,000 UNSAT solves in a row, it holds a small multiple of the
        variables.  A rewind that re-pushes every freed variable grows
        it past 5,000 entries for these 28 variables over the UNSAT run."""
        rng = random.Random(8)
        while True:
            clauses, num_vars = tseitin_like(rng, inputs=8, gates=20, extra=10)
            queries = {True: [], False: []}
            for _ in range(200):
                assumptions = random_assumptions(rng, num_vars)
                units = [(lit,) for lit in assumptions]
                sat = SATSolver(clauses + units, num_vars).solve() is not None
                queries[sat].append(assumptions)
            if len(queries[True]) >= 10 and len(queries[False]) >= 10:
                break
        solver = IncrementalSolver()
        for clause in clauses:
            solver.add_clause(clause)
        for i in range(2000):
            sat = i < 1000 and i % 2 == 0
            assumptions = queries[sat][i // 2 % len(queries[sat])]
            assert (solver.solve(assumptions=assumptions) is not None) == sat
            assert len(solver.heap) <= 4 * num_vars
