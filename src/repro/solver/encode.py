"""Grounding syntactic hyper-assertions into propositional logic.

Over a finite universe ``U`` of extended states, a set ``S ⊆ U`` is
described by one Boolean *membership atom* ``m_u`` per state.  A Def. 9
assertion grounds as:

- ``∀⟨φ⟩. A``  ⟶  ``⋀_K (¬s_K ∨ ⟦A⟧[φ:=u_K])``
- ``∃⟨φ⟩. A``  ⟶  ``⋁_K (s_K ∧ ⟦A⟧[φ:=u_K])``
- value quantifiers expand over the finite domain,
- closed atomic comparisons evaluate to constants.

Here ``K`` ranges over the classes of ``U`` under ``A``'s reads of
``φ``: two states that agree on every ``φ(x)`` the body reads give it
the same formula, so each class is grounded once, at its first member
``u_K``, and guarded by its *class selector* ``s_K = ⋁_{u∈K} m_u``.
This is the per-state expansion ``⋀_{u∈U} (m_u → ⟦A⟧[φ:=u])`` regrouped
by class — exact, and still over membership atoms only, so models
decode to sets unchanged.  GNI's ``∀⟨φ1⟩,⟨φ2⟩. ∃⟨φ⟩. φ(h) = φ1(h) ∧
φ(l) = φ2(l)`` on the 8-state h,l,y universe has ``2·2·4`` leaves
instead of ``8·8·8``: ``φ1`` reads only ``h``, ``φ2`` only ``l`` and
``φ`` both.

``P |= Q`` then reduces to UNSAT of ``⟦P⟧ ∧ ¬⟦Q⟧`` — the same shape of
reduction the Hypra verifier performs with Z3, here with our own CDCL solver.

The grounding pass is compile-once per query: each distinct comparison
leaf is lowered to a closure (:func:`repro.compile.hyper.compile_hexpr`)
the first time it is seen, the per-state atom literals and the class
selectors are built once, and quantifier instantiation mutates a single
binding environment (set/restore) instead of copying a dict per
instantiation.  A quantifier's grounding depends on the enclosing
bindings only through the values it reads from them, so each quantifier
node is grounded once per distinct *read projection* — the values of
its free ``φ(x)`` lookups and free value variables — and the result is
shared by every binding with that projection.
The solver-facing entry points additionally key their atoms by the
state's *interned id* (its position in the universe tuple), so the
formula, CNF and DPLL layers hash machine ints instead of whole
extended states.
"""

from ..assertions.base import Assertion
from ..assertions.semantic import AndAssertion, NotAssertion, OrAssertion
from ..assertions.syntax import (
    SAnd,
    SBool,
    SCmp,
    SExistsState,
    SExistsVal,
    SForallState,
    SForallVal,
    SOr,
    SynAssertion,
)
import threading

from ..compile.hyper import compile_cmp, compile_hexpr
from ..errors import SolverError
from .formula import FAnd, FFalse, FNot, FOr, FTrue, FVar, f_or, fand, fnot, fvar
from .sat import IncrementalSolver, solve_formula

_MISSING = object()

_QUANTIFIERS = (SForallState, SExistsState, SForallVal, SExistsVal)


class Unsupported(Exception):
    """Raised when an assertion is outside the groundable fragment."""


def _membership_atom(state):
    return ("member", state)


def _interned_atom(universe):
    """Membership atoms keyed by interned id — ``("m", i)`` for the
    ``i``-th state of ``universe`` — so every downstream dictionary
    (formula dedup, CNF mapping, DPLL assignments and watch lists)
    hashes a small int instead of a whole extended state."""
    index = {u: ("m", i) for i, u in enumerate(universe)}
    return index.__getitem__


def ground_assertion(
    assertion, universe, domain, sigma_env=None, delta_env=None, atom=_membership_atom
):
    """Ground ``assertion`` to a propositional formula over membership atoms.

    ``universe`` is the tuple of all extended states; the resulting
    formula's atoms are ``atom(φ)`` pairs — ``("member", φ)`` by default.
    The symbolic validity encoder passes distinct ``atom`` constructors to
    keep the precondition's selector namespace and the postcondition's
    post-state namespace apart within one query.
    """
    grounder = _Grounder(tuple(universe), domain, atom)
    return grounder.ground(assertion, dict(sigma_env or {}), dict(delta_env or {}))


class _Grounder:
    """One grounding pass over one universe/atom namespace.

    Holds the prebuilt positive/negative atom literals (one pair per
    state id), the memo of compiled comparison closures, the class
    selectors, and one *entry* per quantifier node.  The first time the
    pass reaches a quantifier, one walk of its subtree collects the free
    reads (:meth:`~repro.assertions.syntax.SynAssertion.free_reads`, as
    ``(state, var, is prog)``) and free value variables of every
    quantifier inside it and records their entries:

    - **classes** (state quantifiers): ``∃⟨φ⟩. B`` grounds as
      ``⋁_K (s_K ∧ ⟦B⟧[φ:=u_K])`` and ``∀⟨φ⟩. B`` as
      ``⋀_K (¬s_K ∨ ⟦B⟧[φ:=u_K])``, where ``K`` ranges over the classes
      of the universe under ``B``'s reads of ``φ`` (numbered in order of
      first occurrence), ``u_K`` is the first member of ``K`` and the
      selector ``s_K = ⋁_{u∈K} m_u`` (plain ``m_u`` for a singleton) is
      built once per read tuple and shared by every occurrence.  States
      of one class give ``B`` the same formula — state variables occur
      only in lookups and every operator is total — so this is the
      per-state expansion regrouped, not an abstraction.  A missing
      variable keys as a sentinel, so its class representative raises
      the same error the per-state expansion would;
    - **the projection memo**: a quantifier node's grounding is a
      function of the values it reads from the enclosing bindings — its
      free ``φ(x)`` lookups in ``sigma`` and its free value variables in
      ``delta`` — so each node
      is grounded once per distinct tuple of those values and the
      formula object is shared by every other binding that projects to
      it.  An unbound state or a missing variable keys as a sentinel
      (recomputing it raises the same error), and only completed
      groundings are stored.  A quantifier reached with no binding at
      all (an outermost one) is reached once, so it skips the key.

    The recursion threads two *mutable* binding environments, restoring
    each binding on exit instead of copying the dict per instantiation.
    """

    __slots__ = ("universe", "domain", "pos", "neg", "_cmps", "_entries", "_classes")

    def __init__(self, universe, domain, atom):
        self.universe = universe
        self.domain = domain
        self.pos = tuple(fvar(atom(u)) for u in universe)
        self.neg = tuple(fnot(v) for v in self.pos)
        self._cmps = {}
        # id(quantifier node) -> (free reads, free value vars, classes, memo)
        self._entries = {}
        self._classes = {}  # frozenset of (var, is prog) reads -> classes

    def _cmp_fn(self, node):
        # keyed by node identity: the assertion tree outlives the pass,
        # so ids are stable for its duration
        fn = self._cmps.get(id(node))
        if fn is None:
            op = compile_cmp(node.op)
            left = compile_hexpr(node.left)
            right = compile_hexpr(node.right)

            def fn(sigma, delta, op=op, left=left, right=right):
                return op(left(sigma, delta), right(sigma, delta))

            self._cmps[id(node)] = fn
        return fn

    def _entry(self, node):
        """``node``'s per-pass entry: its free reads as ``(state, var, is
        prog)``, its free value variables, its classes (``None`` for a
        value quantifier) and its projection memo."""
        entry = self._entries.get(id(node))
        if entry is None:
            self._scan(node)
            entry = self._entries[id(node)]
        return entry

    def _scan(self, node):
        """``node``'s free reads and free value variables, recording the
        entry of every quantifier node inside it on the way: one walk of
        the subtree serves all its nested quantifiers."""
        if isinstance(node, SCmp):
            reads = {(state, var, True) for state, var in node.prog_lookups()}
            reads.update((state, var, False) for state, var in node.log_lookups())
            return reads, node.free_value_vars()
        if isinstance(node, (SAnd, SOr)):
            reads, values = self._scan(node.left)
            right_reads, right_values = self._scan(node.right)
            return reads | right_reads, values | right_values
        if not isinstance(node, _QUANTIFIERS):  # SBool
            return frozenset(), frozenset()
        reads, values = self._scan(node.body)
        if isinstance(node, (SForallState, SExistsState)):
            bound = node.state
            own = frozenset((var, prog) for state, var, prog in reads if state == bound)
            reads = {read for read in reads if read[0] != bound}
            classes = self._partition(own)
        else:
            values = values - {node.var}
            classes = None
        self._entries[id(node)] = (tuple(reads), tuple(values), classes, {})
        return reads, values

    def _partition(self, own):
        """The classes of the universe under the reads ``own`` of the
        bound state: ``(representative, s_K, ¬s_K)`` triples."""
        classes = self._classes.get(own)
        if classes is None:
            groups = {}  # projection -> member ids, in first-occurrence order
            for i, u in enumerate(self.universe):
                key = tuple(
                    (u.prog if prog else u.log).get(var, _MISSING) for var, prog in own
                )
                groups.setdefault(key, []).append(i)
            classes = []
            for members in groups.values():
                if len(members) == 1:
                    sel, unsel = self.pos[members[0]], self.neg[members[0]]
                else:
                    sel = f_or(*(self.pos[i] for i in members))
                    unsel = fnot(sel)
                classes.append((self.universe[members[0]], sel, unsel))
            classes = self._classes[own] = tuple(classes)
        return classes

    def ground(self, node, sigma, delta):
        # semantic combinator wrappers around syntactic parts remain groundable
        if isinstance(node, AndAssertion):
            return fand(*(self.ground(p, sigma, delta) for p in node.parts))
        if isinstance(node, OrAssertion):
            return f_or(*(self.ground(p, sigma, delta) for p in node.parts))
        if isinstance(node, NotAssertion):
            return fnot(self.ground(node.operand, sigma, delta))
        if not isinstance(node, SynAssertion):
            raise Unsupported("cannot ground %r" % (node,))

        if isinstance(node, SBool):
            return FTrue() if node.value else FFalse()
        if isinstance(node, SCmp):
            return FTrue() if self._cmp_fn(node)(sigma, delta) else FFalse()
        if isinstance(node, SAnd):
            left = self.ground(node.left, sigma, delta)
            if isinstance(left, FFalse):  # mirror `and` short-circuit
                return left
            return fand(left, self.ground(node.right, sigma, delta))
        if isinstance(node, SOr):
            left = self.ground(node.left, sigma, delta)
            if isinstance(left, FTrue):  # mirror `or` short-circuit
                return left
            return f_or(left, self.ground(node.right, sigma, delta))
        if not isinstance(node, _QUANTIFIERS):
            raise Unsupported("cannot ground %r" % (node,))
        reads, value_vars, classes, memo = self._entry(node)
        if not sigma and not delta:  # outermost: reached once, nothing to share
            return self._ground_quantifier(node, classes, sigma, delta)
        key = []
        for state, var, prog in reads:
            phi = sigma.get(state, _MISSING)
            if phi is not _MISSING:
                phi = (phi.prog if prog else phi.log).get(var, _MISSING)
            key.append(phi)
        key.extend(delta.get(name, _MISSING) for name in value_vars)
        key = tuple(key)
        formula = memo.get(key)
        if formula is None:  # only completed groundings are stored
            formula = memo[key] = self._ground_quantifier(node, classes, sigma, delta)
        return formula

    def _ground_quantifier(self, node, classes, sigma, delta):
        if classes is None:
            name = node.var
            body = node.body
            universal = isinstance(node, SForallVal)
            absorbing = FFalse if universal else FTrue
            old = delta.get(name, _MISSING)
            parts = []
            for v in self.domain:
                delta[name] = v
                part = self.ground(body, sigma, delta)
                if isinstance(part, absorbing):  # decided: skip the rest
                    parts = [part]
                    break
                parts.append(part)
            if old is _MISSING:
                delta.pop(name, None)  # empty domain: never bound
            else:
                delta[name] = old
            return fand(*parts) if universal else f_or(*parts)
        name = node.state
        body = node.body
        old = sigma.get(name, _MISSING)
        parts = []
        if isinstance(node, SForallState):  # ⋀_K (¬s_K ∨ ⟦B⟧[φ:=u_K])
            for rep, _, unsel in classes:
                sigma[name] = rep
                parts.append(f_or(unsel, self.ground(body, sigma, delta)))
            combine = fand
        else:  # ⋁_K (s_K ∧ ⟦B⟧[φ:=u_K])
            for rep, sel, _ in classes:
                sigma[name] = rep
                parts.append(fand(sel, self.ground(body, sigma, delta)))
            combine = f_or
        if old is _MISSING:
            sigma.pop(name, None)  # empty universe: never bound
        else:
            sigma[name] = old
        return combine(*parts)


def entails_sat(pre, post, universe, domain, atom=None):
    """Decide ``pre |= post`` over subsets of ``universe`` via SAT.

    Encodes ``⟦pre⟧ ∧ ¬⟦post⟧`` and reports entailment iff it is UNSAT.
    Raises :class:`Unsupported` when either side cannot be grounded.
    With ``atom=None`` the membership atoms are keyed by interned state
    id (they never leave this function).
    """
    if not isinstance(pre, Assertion) or not isinstance(post, Assertion):
        raise Unsupported("operands must be assertions")
    universe = tuple(universe)
    if atom is None:
        atom = _interned_atom(universe)
    query = fand(
        ground_assertion(pre, universe, domain, atom=atom),
        fnot(ground_assertion(post, universe, domain, atom=atom)),
    )
    return solve_formula(query) is None


class IncrementalEntailment:
    """Entailment queries over one universe on a *persistent* solver.

    :func:`entails_sat` pays the full pipeline per query — ground,
    Tseitin-encode into a fresh CNF, solve from scratch — although a
    chain run issues thousands of near-identical queries over the same
    membership atoms.  This class keeps one
    :class:`~repro.solver.sat.IncrementalSolver` alive for the
    universe's lifetime and exploits two structural facts:

    1. the Tseitin encoding (:func:`~repro.solver.cnf.tseitin`) emits
       *biconditional* definitions — each definition clause set is a
       conservative extension, true in every model — so definitional
       clauses can be added once, globally, and shared by all queries;
    2. a query is then a single solver call under one **assumption**
       (the root literal of ``⟦pre⟧ ∧ ¬⟦post⟧``): UNSAT under the
       assumption iff entailed.  No per-query activation groups means
       clauses learned refuting one query carry over undiminished to
       the next.

    Subformula encodings are memoized structurally (formulas are frozen
    dataclasses), so shared subtrees across queries — the common case:
    the same ``pre`` against many ``post``\\ s — encode once; grounded
    formulas are additionally cached per assertion object, skipping the
    grounding walk entirely on repeats.  Verdicts are identical to
    :func:`entails_sat`, which the solver tests assert; thread-safe
    (one lock per instance, matching the oracle's sharing).
    """

    def __init__(self, universe, domain):
        self.universe = tuple(universe)
        self.domain = domain
        self._atom = _interned_atom(self.universe)
        self._solver = IncrementalSolver()
        self._atom_vars = {}  # atom key -> solver variable
        self._lits = {}  # formula (structural) -> solver literal
        self._grounded = {}  # id(assertion) -> (assertion ref, formula)
        self._lock = threading.Lock()
        self.queries = 0

    def _ground(self, assertion):
        entry = self._grounded.get(id(assertion))
        if entry is not None and entry[0] is assertion:
            return entry[1]
        formula = ground_assertion(
            assertion, self.universe, self.domain, atom=self._atom
        )
        # keyed by identity, the ref in the value keeps the id stable
        self._grounded[id(assertion)] = (assertion, formula)
        return formula

    def _lit(self, formula):
        """The solver literal defined (once) to be ``formula``."""
        lit = self._lits.get(formula)
        if lit is not None:
            return lit
        solver = self._solver
        if isinstance(formula, FVar):
            var = self._atom_vars.get(formula.name)
            if var is None:
                var = solver.new_var()
                self._atom_vars[formula.name] = var
            lit = var
        elif isinstance(formula, FTrue):
            lit = solver.new_var()
            solver.add_clause((lit,))
        elif isinstance(formula, FFalse):
            var = solver.new_var()
            solver.add_clause((-var,))
            lit = var
        elif isinstance(formula, FNot):
            lit = -self._lit(formula.operand)
        elif isinstance(formula, (FAnd, FOr)):
            parts = [self._lit(part) for part in formula.parts]
            var = solver.new_var()
            if isinstance(formula, FAnd):
                for part in parts:
                    solver.add_clause((-var, part))
                solver.add_clause(tuple(-part for part in parts) + (var,))
            else:
                solver.add_clause((-var,) + tuple(parts))
                for part in parts:
                    solver.add_clause((-part, var))
            lit = var
        else:
            raise SolverError("cannot encode %r" % (formula,))
        self._lits[formula] = lit
        return lit

    def entails(self, pre, post):
        """``pre |= post`` over subsets of the universe.

        Raises :class:`Unsupported` when either side cannot be
        grounded (callers fall back to brute force, exactly as with
        :func:`entails_sat`).
        """
        if not isinstance(pre, Assertion) or not isinstance(post, Assertion):
            raise Unsupported("operands must be assertions")
        with self._lock:
            query = fand(self._ground(pre), fnot(self._ground(post)))
            root = self._lit(query)
            self.queries += 1
            return self._solver.solve(assumptions=(root,)) is None


def entailment_model(pre, post, universe, domain, atom=None):
    """A counterexample set ``S`` with ``pre(S) ∧ ¬post(S)`` via SAT.

    Returns a frozenset of extended states, or ``None`` when entailed.
    """
    universe = tuple(universe)
    if atom is None:
        atom = _interned_atom(universe)
    query = fand(
        ground_assertion(pre, universe, domain, atom=atom),
        fnot(ground_assertion(post, universe, domain, atom=atom)),
    )
    model = solve_formula(query)
    if model is None:
        return None
    return frozenset(u for u in universe if model.get(atom(u), False))


def satisfiable_sat(assertion, universe, domain, atom=None):
    """Whether some subset of ``universe`` satisfies ``assertion`` (SAT)."""
    universe = tuple(universe)
    if atom is None:
        atom = _interned_atom(universe)
    return (
        solve_formula(ground_assertion(assertion, universe, domain, atom=atom))
        is not None
    )
