"""The SAT stack: formulas, Tseitin CNF, CDCL — cross-validated against
brute-force truth tables."""

import sys
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.cnf import CNF, tseitin
from repro.solver.formula import (
    FFalse,
    FTrue,
    FVar,
    fand,
    fimplies,
    fnot,
    f_or,
    fvar,
)
from repro.solver.sat import SATSolver, solve_cnf, solve_formula

ATOMS = ("a", "b", "c", "d")


@st.composite
def formulas(draw, max_depth=4):
    if max_depth <= 0:
        return fvar(draw(st.sampled_from(ATOMS)))
    kind = draw(st.sampled_from(["var", "not", "and", "or", "true", "false"]))
    if kind == "var":
        return fvar(draw(st.sampled_from(ATOMS)))
    if kind == "true":
        return FTrue()
    if kind == "false":
        return FFalse()
    if kind == "not":
        return fnot(draw(formulas(max_depth=max_depth - 1)))
    parts = draw(st.lists(formulas(max_depth=max_depth - 1), min_size=2, max_size=3))
    return fand(*parts) if kind == "and" else f_or(*parts)


def brute_force_sat(formula):
    names = sorted(formula.atoms())
    for combo in product((False, True), repeat=len(names)):
        if formula.evaluate(dict(zip(names, combo))):
            return True
    return not names and formula.evaluate({})


class TestFormulaAlgebra:
    def test_constant_folding(self):
        assert fand(FTrue(), fvar("a")) == fvar("a")
        assert fand(FFalse(), fvar("a")) == FFalse()
        assert f_or(FFalse(), fvar("a")) == fvar("a")
        assert f_or(FTrue(), fvar("a")) == FTrue()
        assert fnot(fnot(fvar("a"))) == fvar("a")
        assert fnot(FTrue()) == FFalse()

    def test_flattening(self):
        f = fand(fand(fvar("a"), fvar("b")), fvar("c"))
        assert len(f.parts) == 3

    def test_empty_connectives(self):
        assert fand() == FTrue()
        assert f_or() == FFalse()

    def test_evaluate(self):
        f = fimplies(fvar("a"), fvar("b"))
        assert f.evaluate({"a": False, "b": False})
        assert not f.evaluate({"a": True, "b": False})

    def test_atoms(self):
        f = fand(fvar("a"), fnot(fvar("b")))
        assert f.atoms() == {"a", "b"}


class TestCNF:
    def test_tseitin_var_count_linear(self):
        f = fand(*[f_or(fvar("a"), fnot(fvar("b"))) for _ in range(10)])
        cnf = tseitin(f)
        assert cnf.num_vars < 50

    def test_shared_subformula_defined_once(self):
        """A subformula occurring k times (here k structurally equal
        copies) gets one definition variable, not k."""
        k = 5
        f = fand(
            *[f_or(fand(fvar("a"), fnot(fvar("b"))), fvar(("c", i))) for i in range(k)]
        )
        cnf = tseitin(f)
        # atoms a, b, c_0..c_4; one for the shared conjunction; k
        # disjunctions; the root conjunction
        assert cnf.num_vars == (2 + k) + 1 + k + 1
        shared = cnf.lits[fand(fvar("a"), fnot(fvar("b")))]
        assert sum(1 for clause in cnf.clauses if -shared in clause) == 2 + k

    @given(formulas())
    @settings(max_examples=150, deadline=None)
    def test_tseitin_equisatisfiable(self, formula):
        cnf = tseitin(formula)
        model = solve_cnf(cnf)
        assert (model is not None) == brute_force_sat(formula)

    def test_model_satisfies_original(self):
        f = fand(f_or(fvar("a"), fvar("b")), fnot(fvar("a")))
        out = solve_formula(f)
        assert out is not None
        assert f.evaluate({k: out.get(k, False) for k in ("a", "b")})


class TestSolver:
    def test_trivial(self):
        assert SATSolver([], 0).solve() == {}
        assert SATSolver([(1,)], 1).solve() == {1: True}
        assert SATSolver([(1,), (-1,)], 1).solve() is None

    def test_empty_clause_unsat(self):
        assert SATSolver([()], 1).solve() is None

    def test_tautology_dropped(self):
        assert SATSolver([(1, -1)], 1).solve() is not None

    def test_unit_propagation_chain(self):
        clauses = [(1,), (-1, 2), (-2, 3), (-3, 4)]
        model = SATSolver(clauses, 4).solve()
        assert model == {1: True, 2: True, 3: True, 4: True}

    def test_php_unsat(self):
        """Pigeonhole 3→2: classically UNSAT."""
        # variable p_{i,j}: pigeon i in hole j; i in 0..2, j in 0..1
        def v(i, j):
            return 1 + i * 2 + j

        clauses = []
        for i in range(3):
            clauses.append((v(i, 0), v(i, 1)))
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append((-v(i1, j), -v(i2, j)))
        assert SATSolver(clauses, 6).solve() is None

    def test_pure_literal_elimination_at_root(self):
        # every literal is positive → all pure → solved with zero splits
        solver = SATSolver([(1, 2), (1, 3), (2, 3)], 3)
        model = solver.solve()
        assert model is not None
        assert solver.stats["pure_literals"] > 0
        assert solver.stats["decisions"] == 0

    def test_pure_literal_fixpoint_cascades(self):
        # 1 and 4 are pure and together satisfy every clause; the split
        # search then only completes the don't-care variables 2 and 3
        # (conflict-free decisions against empty watch lists — the
        # static-order chooser does not scan for satisfied clauses)
        solver = SATSolver([(1, 2), (1, -3), (-2, 3, 4)], 4)
        model = solver.solve()
        assert model is not None
        assert solver.stats["pure_literals"] == 2
        assert solver.stats["decisions"] == 2
        assert solver.stats["propagations"] == 0

    def test_pure_literals_preserve_unsat(self):
        # no pure literals here; elimination must not break refutation
        clauses = [(1, 2), (-1, 2), (1, -2), (-1, -2)]
        assert SATSolver(clauses, 2).solve() is None

    def test_deep_splits_do_not_recurse(self):
        """Hundreds of chained decisions must not hit the recursion limit.

        ``(x_i ∨ y_i) ∧ (¬x_i ∨ ¬y_i)`` per pair: no units, no pure
        literals, so the solver has to split once per pair — the old
        recursive search needed one Python frame per split.
        """

        def frame_depth():
            frame, depth = sys._getframe(), 0
            while frame is not None:
                depth += 1
                frame = frame.f_back
            return depth

        pairs = 200
        clauses = []
        for i in range(pairs):
            x, y = 2 * i + 1, 2 * i + 2
            clauses.append((x, y))
            clauses.append((-x, -y))
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 60)
        try:
            model = SATSolver(clauses, 2 * pairs).solve()
        finally:
            sys.setrecursionlimit(old_limit)
        assert model is not None
        for i in range(pairs):
            assert model[2 * i + 1] != model[2 * i + 2]

    @given(
        st.lists(
            st.lists(
                st.integers(1, 5).flatmap(
                    lambda n: st.sampled_from([n, -n])
                ),
                min_size=1,
                max_size=4,
            ).map(tuple),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_against_truth_table(self, clauses):
        expected = False
        for combo in product((False, True), repeat=5):
            assignment = dict(zip(range(1, 6), combo))
            if all(
                any(assignment[abs(l)] == (l > 0) for l in clause)
                for clause in clauses
            ):
                expected = True
                break
        model = SATSolver(clauses, 5).solve()
        assert (model is not None) == expected
        if model is not None:
            assert all(
                any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses
            )
