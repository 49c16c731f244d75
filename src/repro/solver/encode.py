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
decode to sets unchanged.  GNI on the 8-state h,l,y universe has
``2·2·4`` leaves instead of ``8·8·8``: ``φ1`` reads only ``h``, ``φ2``
only ``l`` and ``φ`` both.

``P |= Q`` then reduces to UNSAT of ``⟦P⟧ ∧ ¬⟦Q⟧`` — the same shape of
reduction the Hypra verifier performs with Z3, here with our own CDCL solver.
Every query, one-shot (:func:`entails_sat`, :func:`entailment_model`) or
incremental (:class:`IncrementalEntailment`), is Tseitin-encoded by
:mod:`repro.solver.cnf` and decided by :mod:`repro.solver.sat`.

A grounding pass compiles the assertion into a *plan* of closures in
one bottom-up walk that dispatches on node kind, gives each ``φ(x)``
read a *slot* and collects free reads and value variables.  A state
quantifier binds its class representative's vector of slot values, so
leaves read by index; running the plan only calls closures and looks up
bindings and memo entries.  Slot vectors and classes live in the
grounder: one call of :func:`ground_assertion`, or the universe's
lifetime in :class:`IncrementalEntailment`, whose atoms are keyed by
the state's position in the universe (small ints, cheap to hash).
"""

import threading

from ..assertions.base import Assertion
from ..assertions.semantic import AndAssertion, NotAssertion, OrAssertion
from ..assertions.syntax import (
    HProg,
    HVar,
    SAnd,
    SBool,
    SCmp,
    SExistsState,
    SExistsVal,
    SForallState,
    SForallVal,
    SOr,
)
from ..compile.hyper import compile_cmp, compile_hexpr
from ..errors import EvaluationError
from .cnf import CNF, _encode
from .formula import FFalse, FTrue, f_or, fand, fnot, fvar
from .sat import IncrementalSolver, solve_formula

_MISSING = object()
_TRUE, _FALSE = FTrue(), FFalse()


class Unsupported(Exception):
    """Raised when an assertion is outside the groundable fragment."""


def _membership_atom(state):
    return ("member", state)


def _interned_atom(universe):
    """Membership atoms keyed by interned id — ``("m", i)`` for the
    ``i``-th state of ``universe`` — so every downstream dictionary
    (formula dedup, CNF mapping, solver assignments and watch lists)
    hashes a small int instead of a whole extended state."""
    index = {u: ("m", i) for i, u in enumerate(universe)}
    return index.__getitem__


def ground_assertion(
    assertion, universe, domain, sigma_env=None, delta_env=None, atom=_membership_atom,
    grounder=None,
):
    """Ground ``assertion`` to a propositional formula over membership atoms.

    ``universe`` is the tuple of all extended states; the resulting
    formula's atoms are ``atom(φ)`` pairs — ``("member", φ)`` by default.
    The symbolic validity encoder passes distinct ``atom`` constructors to
    keep the precondition's selector namespace and the postcondition's
    post-state namespace apart within one query.  ``grounder``, a
    :class:`_Grounder` of the same universe, domain and atom, keeps its
    slot vectors and partition classes from earlier calls.
    """
    if grounder is None:
        grounder = _Grounder(tuple(universe), domain, atom)
    return grounder.ground(assertion, sigma_env or {}, delta_env or {})


class _Grounder:
    """Compiles and runs grounding plans over one universe and atom
    namespace, keeping across passes the slot vectors (:data:`_MISSING`
    where a state lacks the variable, so reading it raises the
    ``KeyError`` a lookup would) and the classes per tuple of read
    slots, in first-occurrence order, each selector one object shared
    by every quantifier.

    The walk returns ``(reads, values, make)`` per node: its free
    ``(state, slot)`` reads and value variables (ordered dicts) and
    ``make(width)``, which builds ``run(sigma, delta)`` over bindings
    that quantifiers set and restore in place.  ``width`` counts what
    tells the node's calls apart: the key of its nearest enclosing
    quantifier plus what that one binds.  A quantifier whose own key is
    narrower repeats calls, so it is memoized on its key (unbound keys
    as :data:`_MISSING`; only completed groundings are stored).
    """

    __slots__ = ("universe", "pos", "neg", "_values", "_slots", "_vectors", "_classes")

    def __init__(self, universe, domain, atom):
        self.universe = universe
        self._values = [(v, None) for v in domain]  # value quantifiers' cases
        self.pos = [fvar(atom(u)) for u in universe]
        self.neg = [fnot(v) for v in self.pos]
        self._slots = {}  # (var, is prog) -> slot
        self._vectors = [[] for _ in universe]  # state id -> value per slot
        self._classes = {}  # sorted tuple of slots -> classes

    def ground(self, assertion, sigma_env, delta_env):
        """One pass: compile ``assertion``'s plan, then run it once."""
        run = self._compile(assertion)[2](0)
        sigma = {}
        for name, phi in sigma_env.items():
            sigma[name] = [(phi.prog if p else phi.log).get(v, _MISSING) for v, p in self._slots]
        return run(sigma, dict(delta_env))

    def _slot(self, var, prog):
        slot = self._slots.get((var, prog))
        if slot is None:
            slot = self._slots[var, prog] = len(self._slots)
            for u, vector in zip(self.universe, self._vectors):
                vector.append((u.prog if prog else u.log).get(var, _MISSING))
        return slot

    def _partition(self, own):
        """The classes under the read slots ``own`` as ``(∃ cases, ∀
        cases)``: each class's representative's vector with ``s_K``, and
        with ``¬s_K``."""
        classes = self._classes.get(own)
        if classes is None:
            groups = {}  # projection -> member ids, in first-occurrence order
            for i, vector in enumerate(self._vectors):
                groups.setdefault(tuple([vector[s] for s in own]), []).append(i)
            exists, forall = [], []
            for members in groups.values():
                vector = self._vectors[members[0]]
                sel = f_or(*(self.pos[i] for i in members))  # m_u itself for a singleton
                exists.append((vector, sel))
                forall.append((vector, self.neg[members[0]] if len(members) == 1 else fnot(sel)))
            classes = self._classes[own] = (tuple(exists), tuple(forall))
        return classes

    def _compile(self, node):
        kind = _KINDS.get(type(node))  # exact classes: assertion nodes are not subclassed
        if kind is None:
            message = "cannot ground %r" % (node,)

            def fail(sigma, delta):
                raise Unsupported(message)

            return {}, {}, lambda width: fail
        return kind(self, node)

    def _cmp(self, node):
        reads, values = {}, {}

        def read(leaf):
            if type(leaf) is HVar:
                values[leaf.name] = None
                return compile_hexpr(leaf)
            slot = self._slot(leaf.var, type(leaf) is HProg)
            reads[leaf.state, slot] = None
            return _reader(leaf.state, leaf.var, slot)

        op, left, right = compile_cmp(
            node.op, compile_hexpr(node.left, read), compile_hexpr(node.right, read)
        )

        def run(sigma, delta):
            return _TRUE if op(left(sigma, delta), right(sigma, delta)) else _FALSE

        return reads, values, lambda width: run

    def _bool(self, node):
        formula = _TRUE if node.value else _FALSE
        return {}, {}, lambda width: lambda sigma, delta: formula

    def _junction(self, node):
        left_reads, left_values, left = self._compile(node.left)
        right_reads, right_values, right = self._compile(node.right)
        # mirror the short-circuit of `and` / `or`
        combine, absorbing = (fand, FFalse) if isinstance(node, SAnd) else (f_or, FTrue)

        def make(width):
            first, second = left(width), right(width)

            def run(sigma, delta):
                formula = first(sigma, delta)
                if type(formula) is absorbing:
                    return formula
                return combine(formula, second(sigma, delta))

            return run

        return {**left_reads, **right_reads}, {**left_values, **right_values}, make

    def _combinator(self, node):
        # semantic combinators around syntactic parts stay groundable
        if isinstance(node, NotAssertion):
            parts, combine = (node.operand,), fnot
        else:
            parts = node.parts
            combine = fand if isinstance(node, AndAssertion) else f_or
        parts = [self._compile(p) for p in parts]

        def make(width):
            runs = [p[2](width) for p in parts]
            return lambda sigma, delta: combine(*[r(sigma, delta) for r in runs])

        reads = {read: None for p in parts for read in p[0]}
        return reads, {value: None for p in parts for value in p[1]}, make

    def _quantifier(self, node):
        """``∀⟨φ⟩. B`` as ``⋀_K (¬s_K ∨ ⟦B⟧[φ:=u_K])``, ``∃⟨φ⟩. B`` as
        ``⋁_K (s_K ∧ ⟦B⟧[φ:=u_K])``; value quantifiers over the domain,
        up to the first absorbing part."""
        body_reads, body_values, body = self._compile(node.body)
        universal = isinstance(node, (SForallState, SForallVal))
        if isinstance(node, (SForallState, SExistsState)):
            name, env, values = node.state, 0, body_values
            own = {read[1] for read in body_reads if read[0] == name}
            reads = {read: None for read in body_reads if read[0] != name}
            cases = self._partition(tuple(sorted(own)))[universal]
            spread = len(own)
        else:
            name, env, reads, spread, cases = node.var, 1, body_reads, 1, self._values
            values = {value: None for value in body_values if value != name}
        guard, combine, absorbing = (f_or, fand, FFalse) if universal else (fand, f_or, FTrue)
        width = len(reads) + len(values)

        def make(outer):
            inner = body(width + spread)

            def run(sigma, delta):
                bindings = delta if env else sigma
                old = bindings.get(name, _MISSING)
                parts = []
                for value, selector in cases:
                    bindings[name] = value
                    part = inner(sigma, delta)
                    if selector is not None:
                        part = guard(selector, part)
                    elif type(part) is absorbing:  # decided: skip the rest
                        parts = [part]
                        break
                    parts.append(part)
                if old is _MISSING:
                    bindings.pop(name, None)  # empty universe or domain: never bound
                else:
                    bindings[name] = old
                return combine(*parts)

            return run if width >= outer else _memoized(run, reads, values)

        return reads, values, make


_KINDS = {
    SCmp: _Grounder._cmp, SBool: _Grounder._bool,
    SAnd: _Grounder._junction, SOr: _Grounder._junction,
    SForallState: _Grounder._quantifier, SExistsState: _Grounder._quantifier,
    SForallVal: _Grounder._quantifier, SExistsVal: _Grounder._quantifier,
    AndAssertion: _Grounder._combinator, OrAssertion: _Grounder._combinator,
    NotAssertion: _Grounder._combinator,
}


def _reader(state, var, slot):
    """The closure for ``state(var)``: index ``slot`` of the bound vector."""

    def read(sigma, delta):
        try:
            vector = sigma[state]
        except KeyError:
            raise EvaluationError("unbound state variable %r" % state)
        value = vector[slot]
        if value is _MISSING:
            raise KeyError(var)
        return value

    return read


def _memoized(ground, reads, values):
    """``ground`` run once per distinct value of its key within the pass."""
    reads, values = tuple(reads), tuple(values)
    memo = {}

    def run(sigma, delta):
        key = tuple([sigma[s][slot] if s in sigma else _MISSING for s, slot in reads])
        key += tuple([delta.get(name, _MISSING) for name in values])
        formula = memo.get(key)
        if formula is None:
            formula = memo[key] = ground(sigma, delta)
        return formula

    return run


def entails_sat(pre, post, universe, domain, atom=None):
    """Decide ``pre |= post`` over subsets of ``universe`` via SAT.

    Encodes ``⟦pre⟧ ∧ ¬⟦post⟧`` and reports entailment iff it is UNSAT.
    Raises :class:`Unsupported` when either side cannot be grounded.
    With ``atom=None`` the membership atoms are keyed by interned state
    id (they never leave this module).
    """
    return entailment_model(pre, post, universe, domain, atom) is None


def entailment_model(pre, post, universe, domain, atom=None):
    """A counterexample set ``S`` with ``pre(S) ∧ ¬post(S)`` via SAT.

    Returns a frozenset of extended states, or ``None`` when entailed;
    raises :class:`Unsupported` like :func:`entails_sat`.
    """
    if not isinstance(pre, Assertion) or not isinstance(post, Assertion):
        raise Unsupported("operands must be assertions")
    universe = tuple(universe)
    if atom is None:
        atom = _interned_atom(universe)
    grounder = _Grounder(universe, domain, atom)  # pre and post share classes
    query = fand(
        ground_assertion(pre, universe, domain, grounder=grounder),
        fnot(ground_assertion(post, universe, domain, grounder=grounder)),
    )
    model = solve_formula(query)
    if model is None:
        return None
    return frozenset(u for u in universe if model.get(atom(u), False))


class IncrementalEntailment:
    """Entailment queries over one universe on a *persistent* solver.

    The Tseitin definitions of :mod:`repro.solver.cnf` are biconditional
    (true in every model), so one long-lived CNF and
    :class:`~repro.solver.sat.IncrementalSolver` serve every query: a
    subformula shared across queries (the same ``pre`` against many
    ``post``\\ s) is defined once, a query is one solve under the
    assumption of its root literal ``⟦pre⟧ ∧ ¬⟦post⟧`` (UNSAT iff
    entailed), and learned clauses carry over.  One grounder keeps its
    slot vectors and classes, and grounded formulas are cached per
    assertion object.  Verdicts equal :func:`entails_sat`'s; one lock
    per instance makes it thread-safe, matching the oracle's sharing.
    """

    def __init__(self, universe, domain):
        self.universe = tuple(universe)
        self.domain = domain
        self._atom = _interned_atom(self.universe)
        self._solver = IncrementalSolver()
        self._cnf = CNF()  # atom map + subformula memo; clauses drained per query
        self._grounder = _Grounder(self.universe, domain, self._atom)
        self._grounded = {}  # id(assertion) -> (assertion ref, formula)
        self._last = (None, None)  # (root literal, model) of the last SAT solve
        self._lock = threading.Lock()
        self.queries = 0

    def _ground(self, assertion):
        entry = self._grounded.get(id(assertion))
        if entry is not None and entry[0] is assertion:
            return entry[1]
        formula = ground_assertion(
            assertion, self.universe, self.domain, atom=self._atom, grounder=self._grounder
        )
        # keyed by identity, the ref in the value keeps the id stable
        self._grounded[id(assertion)] = (assertion, formula)
        return formula

    def _root(self, pre, post):
        """The root literal of ``⟦pre⟧ ∧ ¬⟦post⟧``, its clauses loaded
        into the solver (call under the lock)."""
        if not isinstance(pre, Assertion) or not isinstance(post, Assertion):
            raise Unsupported("operands must be assertions")
        cnf = self._cnf
        root = _encode(fand(self._ground(pre), fnot(self._ground(post))), cnf)
        solver = self._solver
        solver.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(clause)
        cnf.clauses.clear()
        return root

    def _solve(self, root, assumptions):
        """One solve; a model of the query ``root`` is kept as the last."""
        model = self._solver.solve(assumptions=assumptions)
        if model is not None:
            self._last = (root, model)
        return model

    def entails(self, pre, post):
        """``pre |= post`` over subsets of the universe.

        Raises :class:`Unsupported` when either side cannot be
        grounded (callers fall back to brute force, exactly as with
        :func:`entails_sat`).
        """
        with self._lock:
            root = self._root(pre, post)
            self.queries += 1
            return self._solve(root, (root,)) is None

    def least_model(self, pre, post):
        """The least set ``S`` with ``pre(S) ∧ ¬post(S)``, or ``None``.

        Least means: its membership vector, read in universe order with
        "out" before "in", is lexicographically least among all such
        sets.  That set depends only on what the query means, never on
        the solver's history, so it is the same on every execution
        route.  The walk starts from the last model of this query (that
        :meth:`entails` just found, when it returned ``False``) and
        fixes the states in order: one the current model leaves out is
        out at no cost; one it includes costs a solve that tries to
        leave it out, adopting the new model when that is satisfiable
        and fixing the state in otherwise.  A state without a variable
        is constrained by no clause, so it is out.
        """
        with self._lock:
            root = self._root(pre, post)
            last_root, model = self._last
            if last_root != root:
                model = self._solve(root, (root,))
                if model is None:
                    return None
            atom_to_var = self._cnf.atom_to_var
            fixed, chosen = [root], []
            for i, state in enumerate(self.universe):
                var = atom_to_var.get(("m", i))
                if var is None:
                    continue
                if model.get(var, True):  # in, or younger than the model
                    trial = self._solve(root, fixed + [-var])
                    if trial is None:
                        fixed.append(var)
                        chosen.append(state)
                        continue
                    model = trial
                fixed.append(-var)
            return frozenset(chosen)
