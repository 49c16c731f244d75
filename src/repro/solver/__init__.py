"""A from-scratch SAT backend for entailment checking.

The paper's future-work section plans SMT automation (realized by the
authors' Hypra verifier on Boogie/Z3).  This environment has no Z3, so we
build the analogous pipeline from scratch:

1. :mod:`repro.solver.formula` — propositional formula AST;
2. :mod:`repro.solver.cnf`     — Tseitin transformation to CNF;
3. :mod:`repro.solver.sat`     — a CDCL solver over two-watched-literal
   unit propagation;
4. :mod:`repro.solver.encode`  — grounding of syntactic hyper-assertions
   over a finite universe into propositional formulas over set-membership
   atoms, reducing ``P |= Q`` to UNSAT of ``P ∧ ¬Q``.

The encoder's verdicts are cross-validated against brute-force subset
enumeration in ``tests/solver/``.
"""

from .formula import FTrue, FFalse, FVar, FNot, FAnd, FOr, fand, f_or, fnot, fvar
from .cnf import CNF, tseitin
from .sat import SATSolver, solve_cnf, solve_formula
from .encode import entails_sat, ground_assertion, Unsupported

__all__ = [
    "FTrue",
    "FFalse",
    "FVar",
    "FNot",
    "FAnd",
    "FOr",
    "fand",
    "f_or",
    "fnot",
    "fvar",
    "CNF",
    "tseitin",
    "SATSolver",
    "solve_cnf",
    "solve_formula",
    "entails_sat",
    "ground_assertion",
    "Unsupported",
]
