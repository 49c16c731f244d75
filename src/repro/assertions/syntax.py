"""Syntactic hyper-expressions and hyper-assertions (Def. 9).

The restricted syntax interacts with the set of states *only* through
universal/existential quantification over its members::

    e ::= c | y | φ_P(x) | φ_L(x) | e ⊕ e | f(e)
    A ::= b | e ⪰ e | A ∨ A | A ∧ A | ∀y. A | ∃y. A | ∀⟨φ⟩. A | ∃⟨φ⟩. A

Satisfaction follows Def. 12: an environment ``Σ`` maps state names to
extended states, ``Δ`` maps value variables to values, state quantifiers
range over the set ``S`` under consideration, and value quantifiers range
over the (finite) value domain.

Negation is not a primitive — ``negate()`` computes the classical dual
recursively, exactly as the paper stipulates ("Negation ¬A is defined
recursively in the standard way").
"""

from dataclasses import dataclass
from typing import Tuple

from ..errors import EvaluationError
from ..lang import expr as _pe
from .base import Assertion


# ---------------------------------------------------------------------------
# hyper-expressions
# ---------------------------------------------------------------------------


class HExpr:
    """Abstract base of hyper-expressions."""


    def eval(self, sigma_env, delta_env):
        """Value under state environment ``Σ`` and value environment ``Δ``."""
        raise NotImplementedError

    def free_value_vars(self):
        """Value variables occurring (freely) in this expression."""
        raise NotImplementedError

    def prog_lookups(self):
        """Set of ``(state_name, var)`` pairs read via ``φ_P(x)``."""
        raise NotImplementedError

    def log_lookups(self):
        """Set of ``(state_name, var)`` pairs read via ``φ_L(x)``."""
        raise NotImplementedError

    def subst_prog(self, state_name, var, replacement):
        """Replace ``φ_P(var)`` of the given state name by ``replacement``."""
        raise NotImplementedError

    def subst_value_var(self, name, replacement):
        """Replace the value variable ``name`` by ``replacement``."""
        raise NotImplementedError

    def rename_state(self, old, new):
        """Rename a state variable throughout."""
        raise NotImplementedError

    # arithmetic construction sugar
    def __add__(self, other):
        return HBin("+", self, as_hexpr(other))

    def __sub__(self, other):
        return HBin("-", self, as_hexpr(other))

    def __mul__(self, other):
        return HBin("*", self, as_hexpr(other))

    def eq(self, other):
        """Atomic assertion ``self == other``."""
        return SCmp("==", self, as_hexpr(other))

    def ne(self, other):
        """Atomic assertion ``self != other``."""
        return SCmp("!=", self, as_hexpr(other))

    def lt(self, other):
        """Atomic assertion ``self < other``."""
        return SCmp("<", self, as_hexpr(other))

    def le(self, other):
        """Atomic assertion ``self <= other``."""
        return SCmp("<=", self, as_hexpr(other))

    def gt(self, other):
        """Atomic assertion ``self > other``."""
        return SCmp(">", self, as_hexpr(other))

    def ge(self, other):
        """Atomic assertion ``self >= other``."""
        return SCmp(">=", self, as_hexpr(other))


@dataclass(frozen=True)
class HLit(HExpr):
    """A literal constant ``c``."""

    value: object

    __eq__ = _pe.literal_eq
    __hash__ = _pe.literal_hash


    def eval(self, sigma_env, delta_env):
        return self.value

    def free_value_vars(self):
        return frozenset()

    def prog_lookups(self):
        return frozenset()

    def log_lookups(self):
        return frozenset()

    def subst_prog(self, state_name, var, replacement):
        return self

    def subst_value_var(self, name, replacement):
        return self

    def rename_state(self, old, new):
        return self


@dataclass(frozen=True)
class HVar(HExpr):
    """A quantified value variable ``y`` (bound by ``∀y``/``∃y``)."""

    name: str


    def eval(self, sigma_env, delta_env):
        try:
            return delta_env[self.name]
        except KeyError:
            raise EvaluationError("unbound value variable %r" % self.name)

    def free_value_vars(self):
        return frozenset((self.name,))

    def prog_lookups(self):
        return frozenset()

    def log_lookups(self):
        return frozenset()

    def subst_prog(self, state_name, var, replacement):
        return self

    def subst_value_var(self, name, replacement):
        return replacement if name == self.name else self

    def rename_state(self, old, new):
        return self


@dataclass(frozen=True)
class HProg(HExpr):
    """``φ_P(x)`` — program-variable lookup in a quantified state."""

    state: str
    var: str


    def eval(self, sigma_env, delta_env):
        try:
            phi = sigma_env[self.state]
        except KeyError:
            raise EvaluationError("unbound state variable %r" % self.state)
        return phi.pvar(self.var)

    def free_value_vars(self):
        return frozenset()

    def prog_lookups(self):
        return frozenset(((self.state, self.var),))

    def log_lookups(self):
        return frozenset()

    def subst_prog(self, state_name, var, replacement):
        if self.state == state_name and self.var == var:
            return replacement
        return self

    def subst_value_var(self, name, replacement):
        return self

    def rename_state(self, old, new):
        if self.state == old:
            return HProg(new, self.var)
        return self


@dataclass(frozen=True)
class HLog(HExpr):
    """``φ_L(x)`` — logical-variable lookup in a quantified state."""

    state: str
    var: str


    def eval(self, sigma_env, delta_env):
        try:
            phi = sigma_env[self.state]
        except KeyError:
            raise EvaluationError("unbound state variable %r" % self.state)
        return phi.lvar(self.var)

    def free_value_vars(self):
        return frozenset()

    def prog_lookups(self):
        return frozenset()

    def log_lookups(self):
        return frozenset(((self.state, self.var),))

    def subst_prog(self, state_name, var, replacement):
        return self

    def subst_value_var(self, name, replacement):
        return self

    def rename_state(self, old, new):
        if self.state == old:
            return HLog(new, self.var)
        return self


@dataclass(frozen=True)
class HBin(HExpr):
    """A binary operator ``e ⊕ e`` (operators shared with programs)."""

    op: str
    left: HExpr
    right: HExpr


    def eval(self, sigma_env, delta_env):
        try:
            fn = _pe.BINOPS[self.op]
        except KeyError:
            raise EvaluationError("unknown binary operator %r" % self.op)
        return fn(self.left.eval(sigma_env, delta_env), self.right.eval(sigma_env, delta_env))

    def free_value_vars(self):
        return self.left.free_value_vars() | self.right.free_value_vars()

    def prog_lookups(self):
        return self.left.prog_lookups() | self.right.prog_lookups()

    def log_lookups(self):
        return self.left.log_lookups() | self.right.log_lookups()

    def subst_prog(self, state_name, var, replacement):
        return HBin(
            self.op,
            self.left.subst_prog(state_name, var, replacement),
            self.right.subst_prog(state_name, var, replacement),
        )

    def subst_value_var(self, name, replacement):
        return HBin(
            self.op,
            self.left.subst_value_var(name, replacement),
            self.right.subst_value_var(name, replacement),
        )

    def rename_state(self, old, new):
        return HBin(self.op, self.left.rename_state(old, new), self.right.rename_state(old, new))


@dataclass(frozen=True)
class HFun(HExpr):
    """A named total function application ``f(e, ...)``."""

    name: str
    args: Tuple[HExpr, ...]


    def eval(self, sigma_env, delta_env):
        try:
            fn = _pe.FUNS[self.name]
        except KeyError:
            raise EvaluationError("unknown function %r" % self.name)
        return fn(*(a.eval(sigma_env, delta_env) for a in self.args))

    def free_value_vars(self):
        out = frozenset()
        for a in self.args:
            out |= a.free_value_vars()
        return out

    def prog_lookups(self):
        out = frozenset()
        for a in self.args:
            out |= a.prog_lookups()
        return out

    def log_lookups(self):
        out = frozenset()
        for a in self.args:
            out |= a.log_lookups()
        return out

    def subst_prog(self, state_name, var, replacement):
        return HFun(self.name, tuple(a.subst_prog(state_name, var, replacement) for a in self.args))

    def subst_value_var(self, name, replacement):
        return HFun(self.name, tuple(a.subst_value_var(name, replacement) for a in self.args))

    def rename_state(self, old, new):
        return HFun(self.name, tuple(a.rename_state(old, new) for a in self.args))


@dataclass(frozen=True)
class HTupleE(HExpr):
    """A tuple constructor at the hyper-expression level."""

    items: Tuple[HExpr, ...]


    def eval(self, sigma_env, delta_env):
        return tuple(i.eval(sigma_env, delta_env) for i in self.items)

    def free_value_vars(self):
        out = frozenset()
        for i in self.items:
            out |= i.free_value_vars()
        return out

    def prog_lookups(self):
        out = frozenset()
        for i in self.items:
            out |= i.prog_lookups()
        return out

    def log_lookups(self):
        out = frozenset()
        for i in self.items:
            out |= i.log_lookups()
        return out

    def subst_prog(self, state_name, var, replacement):
        return HTupleE(tuple(i.subst_prog(state_name, var, replacement) for i in self.items))

    def subst_value_var(self, name, replacement):
        return HTupleE(tuple(i.subst_value_var(name, replacement) for i in self.items))

    def rename_state(self, old, new):
        return HTupleE(tuple(i.rename_state(old, new) for i in self.items))


def as_hexpr(value):
    """Coerce Python ints/bools/tuples to :class:`HLit`."""
    if isinstance(value, HExpr):
        return value
    if isinstance(value, (int, bool, tuple)):
        return HLit(value)
    raise TypeError("cannot coerce %r to a hyper-expression" % (value,))


# ---------------------------------------------------------------------------
# syntactic hyper-assertions
# ---------------------------------------------------------------------------


class SynAssertion(Assertion):
    """Abstract base of Def. 9 syntactic hyper-assertions."""

    def describe(self):
        """The paper-style concrete syntax (see :mod:`.printer`)."""
        from .printer import pretty_assertion

        return pretty_assertion(self)

    def eval(self, states, sigma_env, delta_env, domain):
        """Satisfaction ``S, Σ, Δ |= A`` (Def. 12)."""
        raise NotImplementedError

    def holds(self, states, domain=None):
        if domain is None:
            raise EvaluationError(
                "syntactic hyper-assertions need a value domain to evaluate "
                "value quantifiers; pass domain="
            )
        return self.eval(frozenset(states), {}, {}, domain)

    def negate(self):
        """The classical dual (negation pushed to the leaves)."""
        raise NotImplementedError

    def free_value_vars(self):
        """Free (unbound) value variables."""
        raise NotImplementedError

    def prog_lookups(self):
        """All ``(state, var)`` program lookups, including under binders."""
        raise NotImplementedError

    def log_lookups(self):
        """All ``(state, var)`` logical lookups, including under binders."""
        raise NotImplementedError

    def free_reads(self):
        """The ``φ_P(x)``/``φ_L(x)`` lookups (as :class:`HProg`/:class:`HLog`)
        whose state ``φ`` is not bound inside this assertion — the part of
        an enclosing state environment its truth can depend on."""
        return frozenset(HProg(s, v) for s, v in self.prog_lookups()) | frozenset(
            HLog(s, v) for s, v in self.log_lookups()
        )

    def free_prog_vars(self):
        """``fv(A)`` — program variables read via any quantified state.

        This is the Fig. 11 notion used in frame side conditions.
        """
        return frozenset(v for _, v in self.prog_lookups())

    def free_log_vars(self):
        """Logical variables read via any quantified state."""
        return frozenset(v for _, v in self.log_lookups())

    def subst_prog(self, state_name, var, replacement):
        raise NotImplementedError

    def subst_value_var(self, name, replacement):
        raise NotImplementedError

    def rename_state(self, old, new):
        raise NotImplementedError

    def has_exists_state(self):
        """Whether ``∃⟨φ⟩`` occurs anywhere (FrameSafe side condition)."""
        raise NotImplementedError

    def forall_not_after_exists(self):
        """True iff no ``∀⟨φ⟩`` occurs below an ``∃⟨φ⟩`` or ``∃y``
        (the While-∀*∃* side condition: "no ∀⟨_⟩ after any ∃ in Q")."""
        return self._check_fa(False)

    def _check_fa(self, seen_exists):
        raise NotImplementedError

    # uniform builders staying in the syntactic fragment
    def __and__(self, other):
        if isinstance(other, SynAssertion):
            return SAnd(self, other)
        return Assertion.__and__(self, other)

    def __or__(self, other):
        if isinstance(other, SynAssertion):
            return SOr(self, other)
        return Assertion.__or__(self, other)


@dataclass(frozen=True)
class SBool(SynAssertion):
    """A Boolean literal ``b``."""

    value: bool


    def eval(self, states, sigma_env, delta_env, domain):
        return self.value

    def negate(self):
        return SBool(not self.value)

    def free_value_vars(self):
        return frozenset()

    def prog_lookups(self):
        return frozenset()

    def log_lookups(self):
        return frozenset()

    def subst_prog(self, state_name, var, replacement):
        return self

    def subst_value_var(self, name, replacement):
        return self

    def rename_state(self, old, new):
        return self

    def has_exists_state(self):
        return False

    def _check_fa(self, seen_exists):
        return True


@dataclass(frozen=True)
class SCmp(SynAssertion):
    """An atomic comparison ``e1 ⪰ e2``."""

    op: str
    left: HExpr
    right: HExpr


    _NEG = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

    def eval(self, states, sigma_env, delta_env, domain):
        try:
            fn = _pe.CMPS[self.op]
        except KeyError:
            raise EvaluationError("unknown comparison %r" % self.op)
        return fn(self.left.eval(sigma_env, delta_env), self.right.eval(sigma_env, delta_env))

    def negate(self):
        return SCmp(self._NEG[self.op], self.left, self.right)

    def free_value_vars(self):
        return self.left.free_value_vars() | self.right.free_value_vars()

    def prog_lookups(self):
        return self.left.prog_lookups() | self.right.prog_lookups()

    def log_lookups(self):
        return self.left.log_lookups() | self.right.log_lookups()

    def subst_prog(self, state_name, var, replacement):
        return SCmp(
            self.op,
            self.left.subst_prog(state_name, var, replacement),
            self.right.subst_prog(state_name, var, replacement),
        )

    def subst_value_var(self, name, replacement):
        return SCmp(
            self.op,
            self.left.subst_value_var(name, replacement),
            self.right.subst_value_var(name, replacement),
        )

    def rename_state(self, old, new):
        return SCmp(self.op, self.left.rename_state(old, new), self.right.rename_state(old, new))

    def has_exists_state(self):
        return False

    def _check_fa(self, seen_exists):
        return True


@dataclass(frozen=True)
class SAnd(SynAssertion):
    """Conjunction ``A ∧ B``."""

    left: SynAssertion
    right: SynAssertion


    def eval(self, states, sigma_env, delta_env, domain):
        return self.left.eval(states, sigma_env, delta_env, domain) and self.right.eval(
            states, sigma_env, delta_env, domain
        )

    def negate(self):
        return SOr(self.left.negate(), self.right.negate())

    def free_value_vars(self):
        return self.left.free_value_vars() | self.right.free_value_vars()

    def prog_lookups(self):
        return self.left.prog_lookups() | self.right.prog_lookups()

    def log_lookups(self):
        return self.left.log_lookups() | self.right.log_lookups()

    def free_reads(self):
        return self.left.free_reads() | self.right.free_reads()

    def subst_prog(self, state_name, var, replacement):
        return SAnd(
            self.left.subst_prog(state_name, var, replacement),
            self.right.subst_prog(state_name, var, replacement),
        )

    def subst_value_var(self, name, replacement):
        return SAnd(
            self.left.subst_value_var(name, replacement),
            self.right.subst_value_var(name, replacement),
        )

    def rename_state(self, old, new):
        return SAnd(self.left.rename_state(old, new), self.right.rename_state(old, new))

    def has_exists_state(self):
        return self.left.has_exists_state() or self.right.has_exists_state()

    def _check_fa(self, seen_exists):
        return self.left._check_fa(seen_exists) and self.right._check_fa(seen_exists)


@dataclass(frozen=True)
class SOr(SynAssertion):
    """Disjunction ``A ∨ B``."""

    left: SynAssertion
    right: SynAssertion


    def eval(self, states, sigma_env, delta_env, domain):
        return self.left.eval(states, sigma_env, delta_env, domain) or self.right.eval(
            states, sigma_env, delta_env, domain
        )

    def negate(self):
        return SAnd(self.left.negate(), self.right.negate())

    def free_value_vars(self):
        return self.left.free_value_vars() | self.right.free_value_vars()

    def prog_lookups(self):
        return self.left.prog_lookups() | self.right.prog_lookups()

    def log_lookups(self):
        return self.left.log_lookups() | self.right.log_lookups()

    def free_reads(self):
        return self.left.free_reads() | self.right.free_reads()

    def subst_prog(self, state_name, var, replacement):
        return SOr(
            self.left.subst_prog(state_name, var, replacement),
            self.right.subst_prog(state_name, var, replacement),
        )

    def subst_value_var(self, name, replacement):
        return SOr(
            self.left.subst_value_var(name, replacement),
            self.right.subst_value_var(name, replacement),
        )

    def rename_state(self, old, new):
        return SOr(self.left.rename_state(old, new), self.right.rename_state(old, new))

    def has_exists_state(self):
        return self.left.has_exists_state() or self.right.has_exists_state()

    def _check_fa(self, seen_exists):
        return self.left._check_fa(seen_exists) and self.right._check_fa(seen_exists)


class _Quant(SynAssertion):
    """Shared machinery of the four quantifier nodes."""


    def free_value_vars(self):
        return self.body.free_value_vars() - self._bound_value()

    def prog_lookups(self):
        return self.body.prog_lookups()

    def log_lookups(self):
        return self.body.log_lookups()

    def free_reads(self):
        bound = self._bound_state()
        return frozenset(r for r in self.body.free_reads() if r.state != bound)

    def _bound_value(self):
        return frozenset()

    def _bound_state(self):
        return None


@dataclass(frozen=True)
class SForallVal(_Quant):
    """``∀y. A`` — universal quantification over the value domain."""

    var: str
    body: SynAssertion


    def eval(self, states, sigma_env, delta_env, domain):
        for v in domain:
            d2 = dict(delta_env)
            d2[self.var] = v
            if not self.body.eval(states, sigma_env, d2, domain):
                return False
        return True

    def negate(self):
        return SExistsVal(self.var, self.body.negate())

    def _bound_value(self):
        return frozenset((self.var,))

    def subst_prog(self, state_name, var, replacement):
        return SForallVal(self.var, self.body.subst_prog(state_name, var, replacement))

    def subst_value_var(self, name, replacement):
        if name == self.var:
            return self
        return SForallVal(self.var, self.body.subst_value_var(name, replacement))

    def rename_state(self, old, new):
        return SForallVal(self.var, self.body.rename_state(old, new))

    def has_exists_state(self):
        return self.body.has_exists_state()

    def _check_fa(self, seen_exists):
        return self.body._check_fa(seen_exists)


@dataclass(frozen=True)
class SExistsVal(_Quant):
    """``∃y. A`` — existential quantification over the value domain."""

    var: str
    body: SynAssertion


    def eval(self, states, sigma_env, delta_env, domain):
        for v in domain:
            d2 = dict(delta_env)
            d2[self.var] = v
            if self.body.eval(states, sigma_env, d2, domain):
                return True
        return False

    def negate(self):
        return SForallVal(self.var, self.body.negate())

    def _bound_value(self):
        return frozenset((self.var,))

    def subst_prog(self, state_name, var, replacement):
        return SExistsVal(self.var, self.body.subst_prog(state_name, var, replacement))

    def subst_value_var(self, name, replacement):
        if name == self.var:
            return self
        return SExistsVal(self.var, self.body.subst_value_var(name, replacement))

    def rename_state(self, old, new):
        return SExistsVal(self.var, self.body.rename_state(old, new))

    def has_exists_state(self):
        return self.body.has_exists_state()

    def _check_fa(self, seen_exists):
        # a value-∃ also blocks later ∀⟨φ⟩ per the rule's statement
        return self.body._check_fa(True)


@dataclass(frozen=True)
class SForallState(_Quant):
    """``∀⟨φ⟩. A`` — quantification over the states of the set ``S``."""

    state: str
    body: SynAssertion


    def eval(self, states, sigma_env, delta_env, domain):
        for phi in states:
            s2 = dict(sigma_env)
            s2[self.state] = phi
            if not self.body.eval(states, s2, delta_env, domain):
                return False
        return True

    def negate(self):
        return SExistsState(self.state, self.body.negate())

    def _bound_state(self):
        return self.state

    def subst_prog(self, state_name, var, replacement):
        return SForallState(self.state, self.body.subst_prog(state_name, var, replacement))

    def subst_value_var(self, name, replacement):
        return SForallState(self.state, self.body.subst_value_var(name, replacement))

    def rename_state(self, old, new):
        if self.state == old:
            return SForallState(new, self.body.rename_state(old, new))
        return SForallState(self.state, self.body.rename_state(old, new))

    def has_exists_state(self):
        return self.body.has_exists_state()

    def _check_fa(self, seen_exists):
        if seen_exists:
            return False
        return self.body._check_fa(seen_exists)


@dataclass(frozen=True)
class SExistsState(_Quant):
    """``∃⟨φ⟩. A`` — existential quantification over the states of ``S``."""

    state: str
    body: SynAssertion


    def eval(self, states, sigma_env, delta_env, domain):
        for phi in states:
            s2 = dict(sigma_env)
            s2[self.state] = phi
            if self.body.eval(states, s2, delta_env, domain):
                return True
        return False

    def negate(self):
        return SForallState(self.state, self.body.negate())

    def _bound_state(self):
        return self.state

    def subst_prog(self, state_name, var, replacement):
        return SExistsState(self.state, self.body.subst_prog(state_name, var, replacement))

    def subst_value_var(self, name, replacement):
        return SExistsState(self.state, self.body.subst_value_var(name, replacement))

    def rename_state(self, old, new):
        if self.state == old:
            return SExistsState(new, self.body.rename_state(old, new))
        return SExistsState(self.state, self.body.rename_state(old, new))

    def has_exists_state(self):
        return True

    def _check_fa(self, seen_exists):
        return self.body._check_fa(True)


# ---------------------------------------------------------------------------
# helpers and bridges from program syntax
# ---------------------------------------------------------------------------

S_TRUE = SBool(True)
"""The syntactic ``⊤``."""

S_FALSE = SBool(False)
"""The syntactic ``⊥``."""


def pv(state, var):
    """``φ_P(x)`` constructor."""
    return HProg(state, var)


def lv(state, var):
    """``φ_L(x)`` constructor."""
    return HLog(state, var)


def hv(name):
    """Quantified value variable constructor."""
    return HVar(name)


def simplies(antecedent, consequent):
    """``A ⇒ B`` — defined as ``¬A ∨ B`` (Sect. 4.1)."""
    return SOr(antecedent.negate(), consequent)


def forall_s(state, body):
    """``∀⟨state⟩. body``."""
    return SForallState(state, body)


def exists_s(state, body):
    """``∃⟨state⟩. body``."""
    return SExistsState(state, body)


def forall_v(var, body):
    """``∀var. body``."""
    return SForallVal(var, body)


def exists_v(var, body):
    """``∃var. body``."""
    return SExistsVal(var, body)


def conj_s(*parts):
    """N-ary syntactic conjunction."""
    parts = list(parts)
    if not parts:
        return S_TRUE
    out = parts[0]
    for p in parts[1:]:
        out = SAnd(out, p)
    return out


def disj_s(*parts):
    """N-ary syntactic disjunction."""
    parts = list(parts)
    if not parts:
        return S_FALSE
    out = parts[0]
    for p in parts[1:]:
        out = SOr(out, p)
    return out


def prog_to_hyper(expr, state_name):
    """Translate a program expression to a hyper-expression ``e(φ)``.

    Every program-variable read becomes ``φ_P(x)`` for the given state.
    """
    if isinstance(expr, _pe.Lit):
        return HLit(expr.value)
    if isinstance(expr, _pe.Var):
        return HProg(state_name, expr.name)
    if isinstance(expr, _pe.BinOp):
        return HBin(
            expr.op,
            prog_to_hyper(expr.left, state_name),
            prog_to_hyper(expr.right, state_name),
        )
    if isinstance(expr, _pe.UnOp):
        if expr.op == "-":
            return HBin("-", HLit(0), prog_to_hyper(expr.operand, state_name))
        return HFun(expr.op, (prog_to_hyper(expr.operand, state_name),))
    if isinstance(expr, _pe.FunApp):
        return HFun(expr.name, tuple(prog_to_hyper(a, state_name) for a in expr.args))
    if isinstance(expr, _pe.TupleLit):
        return HTupleE(tuple(prog_to_hyper(i, state_name) for i in expr.items))
    raise TypeError("not a program expression: %r" % (expr,))


def pred_to_hyper(pred, state_name):
    """Translate a program predicate ``b`` to the assertion ``b(φ)``."""
    if isinstance(pred, _pe.BLit):
        return SBool(pred.value)
    if isinstance(pred, _pe.Cmp):
        return SCmp(
            pred.op,
            prog_to_hyper(pred.left, state_name),
            prog_to_hyper(pred.right, state_name),
        )
    if isinstance(pred, _pe.BAnd):
        return SAnd(pred_to_hyper(pred.left, state_name), pred_to_hyper(pred.right, state_name))
    if isinstance(pred, _pe.BOr):
        return SOr(pred_to_hyper(pred.left, state_name), pred_to_hyper(pred.right, state_name))
    if isinstance(pred, _pe.BNot):
        return pred_to_hyper(pred.operand, state_name).negate()
    raise TypeError("not a program predicate: %r" % (pred,))


def state_names_used(assertion):
    """All state-variable names bound anywhere in a syntactic assertion."""
    out = set()

    def walk(node):
        if isinstance(node, (SForallState, SExistsState)):
            out.add(node.state)
            walk(node.body)
        elif isinstance(node, (SForallVal, SExistsVal)):
            walk(node.body)
        elif isinstance(node, (SAnd, SOr)):
            walk(node.left)
            walk(node.right)

    walk(assertion)
    return frozenset(out)


def value_names_used(assertion):
    """All value-variable names (bound or free) in a syntactic assertion."""
    out = set()

    def walk_expr(e):
        if isinstance(e, HVar):
            out.add(e.name)
        elif isinstance(e, HBin):
            walk_expr(e.left)
            walk_expr(e.right)
        elif isinstance(e, (HFun, HTupleE)):
            for a in e.args if isinstance(e, HFun) else e.items:
                walk_expr(a)

    def walk(node):
        if isinstance(node, (SForallVal, SExistsVal)):
            out.add(node.var)
            walk(node.body)
        elif isinstance(node, (SForallState, SExistsState)):
            walk(node.body)
        elif isinstance(node, (SAnd, SOr)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, SCmp):
            walk_expr(node.left)
            walk_expr(node.right)

    walk(assertion)
    return frozenset(out)
