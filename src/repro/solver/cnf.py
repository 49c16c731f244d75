"""Tseitin transformation to CNF.

Atoms are mapped to positive integers; literals are signed integers in
DIMACS style.  Each distinct non-atomic subformula gets one definition
variable and its defining clauses, keeping the CNF linear in the size of
the formula's DAG (a naive distribution would be exponential).  A
subformula that occurs many times — grounding shares quantifier bodies
and class selectors among many parents — is encoded once per
:class:`CNF`: the encodings are memoized structurally, as
:meth:`repro.solver.encode.IncrementalEntailment._lit` does for the
persistent solver.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import SolverError
from .formula import FAnd, FFalse, FNot, FOr, FTrue, FVar


@dataclass
class CNF:
    """A CNF instance: clauses over integer literals plus the atom map.

    ``lits`` maps each subformula encoded so far to its literal.
    """

    clauses: List[Tuple[int, ...]] = field(default_factory=list)
    atom_to_var: Dict[object, int] = field(default_factory=dict)
    num_vars: int = 0
    lits: Dict[object, int] = field(default_factory=dict, repr=False)

    def new_var(self, atom=None):
        """Allocate a fresh variable, optionally registered for ``atom``."""
        self.num_vars += 1
        if atom is not None:
            self.atom_to_var[atom] = self.num_vars
        return self.num_vars

    def var_for(self, atom):
        """The variable for ``atom``, allocating on first use."""
        v = self.atom_to_var.get(atom)
        if v is None:
            v = self.new_var(atom)
        return v

    def add_clause(self, literals):
        """Add one clause (iterable of non-zero ints)."""
        clause = tuple(literals)
        if 0 in clause:
            raise SolverError("literal 0 is reserved")
        self.clauses.append(clause)

    def decode(self, assignment):
        """Translate a solver assignment (var -> bool) back to atoms."""
        return {atom: assignment.get(v, False) for atom, v in self.atom_to_var.items()}


def tseitin(formula, cnf=None):
    """Encode ``formula`` into ``cnf`` and assert its root literal.

    Returns the (possibly shared) :class:`CNF`; satisfiability of the CNF
    coincides with satisfiability of the conjunction of all formulas
    encoded into it so far.
    """
    if cnf is None:
        cnf = CNF()
    root = _encode(formula, cnf)
    cnf.add_clause((root,))
    return cnf


def _encode(formula, cnf):
    """Return a literal equisatisfiably representing ``formula``."""
    lit = cnf.lits.get(formula)
    if lit is None:
        lit = cnf.lits[formula] = _define(formula, cnf)
    return lit


def _define(formula, cnf):
    """Allocate ``formula``'s literal and emit its defining clauses."""
    if isinstance(formula, FTrue):
        v = cnf.new_var()
        cnf.add_clause((v,))
        return v
    if isinstance(formula, FFalse):
        v = cnf.new_var()
        cnf.add_clause((-v,))
        return v
    if isinstance(formula, FVar):
        return cnf.var_for(formula.name)
    if isinstance(formula, FNot):
        return -_encode(formula.operand, cnf)
    if isinstance(formula, FAnd):
        lits = [_encode(p, cnf) for p in formula.parts]
        v = cnf.new_var()
        # v -> each lit ; (all lits) -> v
        for lit in lits:
            cnf.add_clause((-v, lit))
        cnf.add_clause(tuple(-lit for lit in lits) + (v,))
        return v
    if isinstance(formula, FOr):
        lits = [_encode(p, cnf) for p in formula.parts]
        v = cnf.new_var()
        # v -> some lit ; each lit -> v
        cnf.add_clause((-v,) + tuple(lits))
        for lit in lits:
            cnf.add_clause((-lit, v))
        return v
    raise SolverError("not a formula: %r" % (formula,))
