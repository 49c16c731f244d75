"""Program expressions and Boolean predicates.

The paper models expressions semantically, as total functions from program
states to values (Def. 1).  We use a small syntax tree instead, for three
reasons: expressions stay hashable and comparable, the syntactic assignment
rule ``AssignS`` (Fig. 3) needs *substitution*, and the same trees embed
into hyper-expressions (Def. 9) via :func:`repro.assertions.syntax.prog_to_hyper`.

Expressions are total: division and modulo by zero evaluate to ``0`` and
out-of-range tuple indexing evaluates to ``0``, matching the paper's
stipulation that "expression evaluation is total, such that
division-by-zero and other errors cannot occur" (Sect. 3.1).
"""

import operator
from dataclasses import dataclass
from typing import Tuple

from ..errors import EvaluationError
from ..values import typed_value


def _safe_div(a, b):
    return 0 if b == 0 else a // b


def _safe_mod(a, b):
    return 0 if b == 0 else a % b


def _concat(a, b):
    return tuple(a) + tuple(b)


def _index(a, i):
    seq = tuple(a)
    if 0 <= i < len(seq):
        return seq[i]
    return 0


def literal_eq(self, other):
    """Equality of literal nodes by typed value: ``1``, ``1.0`` and
    ``True`` are distinct literals, as their fingerprints are (the
    dataclass default compares ``1 == True``, which would let one
    stand in for the other in every structural memo)."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return typed_value(self.value) == typed_value(other.value)


def literal_hash(self):
    """The hash matching :func:`literal_eq`."""
    return hash(typed_value(self.value))


BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "//": _safe_div,
    "%": _safe_mod,
    "xor": operator.xor,
    "min": min,
    "max": max,
    "++": _concat,
    "[]": _index,
}
"""Binary operators: name -> total Python implementation."""

UNOPS = {
    "-": operator.neg,
    "abs": abs,
}
"""Unary operators."""

FUNS = {
    "len": lambda a: len(tuple(a)),
    "abs": abs,
    "min": min,
    "max": max,
}
"""Named functions usable via :class:`FunApp` (the ``f(e)`` production)."""

CMPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
"""Comparison operators for predicates."""


class Expr:
    """Abstract base of arithmetic/value expressions.

    Arithmetic operators are overloaded for convenient construction
    (``V("x") + 1``).  Comparisons are built with the named methods
    (``V("x").le(9)``) because ``__eq__`` is reserved for structural
    equality of trees.
    """


    def eval(self, state):
        """Value of this expression in ``state`` (a program state)."""
        raise NotImplementedError

    def free_vars(self):
        """Frozenset of program variables read by this expression."""
        raise NotImplementedError

    def subst(self, mapping):
        """Simultaneously substitute expressions for variables.

        ``mapping`` maps variable names to :class:`Expr`.
        """
        raise NotImplementedError

    # -- construction sugar -------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other):
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", as_expr(other), self)

    def __neg__(self):
        return UnOp("-", self)

    def eq(self, other):
        """The predicate ``self == other``."""
        return Cmp("==", self, as_expr(other))

    def ne(self, other):
        """The predicate ``self != other``."""
        return Cmp("!=", self, as_expr(other))

    def lt(self, other):
        """The predicate ``self < other``."""
        return Cmp("<", self, as_expr(other))

    def le(self, other):
        """The predicate ``self <= other``."""
        return Cmp("<=", self, as_expr(other))

    def gt(self, other):
        """The predicate ``self > other``."""
        return Cmp(">", self, as_expr(other))

    def ge(self, other):
        """The predicate ``self >= other``."""
        return Cmp(">=", self, as_expr(other))


@dataclass(frozen=True)
class Lit(Expr):
    """A literal constant (int, bool, or tuple)."""

    value: object

    __eq__ = literal_eq
    __hash__ = literal_hash


    def eval(self, state):
        return self.value

    def free_vars(self):
        return frozenset()

    def subst(self, mapping):
        return self


@dataclass(frozen=True)
class Var(Expr):
    """A program-variable read."""

    name: str


    def eval(self, state):
        try:
            return state[self.name]
        except KeyError:
            raise EvaluationError("unbound program variable %r" % self.name)

    def free_vars(self):
        return frozenset((self.name,))

    def subst(self, mapping):
        return mapping.get(self.name, self)


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operator application (see :data:`BINOPS`)."""

    op: str
    left: Expr
    right: Expr


    def eval(self, state):
        try:
            fn = BINOPS[self.op]
        except KeyError:
            raise EvaluationError("unknown binary operator %r" % self.op)
        return fn(self.left.eval(state), self.right.eval(state))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def subst(self, mapping):
        return BinOp(self.op, self.left.subst(mapping), self.right.subst(mapping))


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operator application (see :data:`UNOPS`)."""

    op: str
    operand: Expr


    def eval(self, state):
        try:
            fn = UNOPS[self.op]
        except KeyError:
            raise EvaluationError("unknown unary operator %r" % self.op)
        return fn(self.operand.eval(state))

    def free_vars(self):
        return self.operand.free_vars()

    def subst(self, mapping):
        return UnOp(self.op, self.operand.subst(mapping))


@dataclass(frozen=True)
class FunApp(Expr):
    """A named total function applied to argument expressions (``f(e)``)."""

    name: str
    args: Tuple[Expr, ...]


    def eval(self, state):
        try:
            fn = FUNS[self.name]
        except KeyError:
            raise EvaluationError("unknown function %r" % self.name)
        return fn(*(a.eval(state) for a in self.args))

    def free_vars(self):
        out = frozenset()
        for a in self.args:
            out |= a.free_vars()
        return out

    def subst(self, mapping):
        return FunApp(self.name, tuple(a.subst(mapping) for a in self.args))


@dataclass(frozen=True)
class TupleLit(Expr):
    """A tuple (list) constructor, e.g. ``[s xor k]`` in Fig. 6."""

    items: Tuple[Expr, ...]


    def eval(self, state):
        return tuple(i.eval(state) for i in self.items)

    def free_vars(self):
        out = frozenset()
        for i in self.items:
            out |= i.free_vars()
        return out

    def subst(self, mapping):
        return TupleLit(tuple(i.subst(mapping) for i in self.items))


# ---------------------------------------------------------------------------
# Boolean predicates over a single program state
# ---------------------------------------------------------------------------


class BExpr:
    """Abstract base of Boolean predicates over program states."""


    def eval(self, state):
        """Truth value of this predicate in ``state``."""
        raise NotImplementedError

    def free_vars(self):
        """Frozenset of program variables read by this predicate."""
        raise NotImplementedError

    def subst(self, mapping):
        """Substitute expressions for program variables."""
        raise NotImplementedError

    def negate(self):
        """The logical negation, with double negations collapsed."""
        return BNot(self)

    def __and__(self, other):
        return BAnd(self, as_bexpr(other))

    def __or__(self, other):
        return BOr(self, as_bexpr(other))

    def __invert__(self):
        return self.negate()


@dataclass(frozen=True)
class BLit(BExpr):
    """A Boolean literal."""

    value: bool

    __eq__ = literal_eq
    __hash__ = literal_hash


    def eval(self, state):
        return self.value

    def free_vars(self):
        return frozenset()

    def subst(self, mapping):
        return self

    def negate(self):
        return BLit(not self.value)


@dataclass(frozen=True)
class Cmp(BExpr):
    """A comparison between two expressions (see :data:`CMPS`)."""

    op: str
    left: Expr
    right: Expr


    _NEG = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

    def eval(self, state):
        try:
            fn = CMPS[self.op]
        except KeyError:
            raise EvaluationError("unknown comparison %r" % self.op)
        return fn(self.left.eval(state), self.right.eval(state))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def subst(self, mapping):
        return Cmp(self.op, self.left.subst(mapping), self.right.subst(mapping))

    def negate(self):
        return Cmp(self._NEG[self.op], self.left, self.right)


@dataclass(frozen=True)
class BAnd(BExpr):
    """Conjunction."""

    left: BExpr
    right: BExpr


    def eval(self, state):
        return self.left.eval(state) and self.right.eval(state)

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def subst(self, mapping):
        return BAnd(self.left.subst(mapping), self.right.subst(mapping))

    def negate(self):
        return BOr(self.left.negate(), self.right.negate())


@dataclass(frozen=True)
class BOr(BExpr):
    """Disjunction."""

    left: BExpr
    right: BExpr


    def eval(self, state):
        return self.left.eval(state) or self.right.eval(state)

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def subst(self, mapping):
        return BOr(self.left.subst(mapping), self.right.subst(mapping))

    def negate(self):
        return BAnd(self.left.negate(), self.right.negate())


@dataclass(frozen=True)
class BNot(BExpr):
    """Negation."""

    operand: BExpr


    def eval(self, state):
        return not self.operand.eval(state)

    def free_vars(self):
        return self.operand.free_vars()

    def subst(self, mapping):
        return BNot(self.operand.subst(mapping))

    def negate(self):
        return self.operand


TRUE = BLit(True)
"""The always-true predicate."""

FALSE = BLit(False)
"""The always-false predicate."""


def V(name):
    """Shorthand for :class:`Var`."""
    return Var(name)


def lit(value):
    """Shorthand for :class:`Lit`."""
    return Lit(value)


def as_expr(value):
    """Coerce Python ints/bools/tuples to :class:`Lit`; pass exprs through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, bool, tuple)):
        return Lit(value)
    raise TypeError("cannot coerce %r to an expression" % (value,))


def as_bexpr(value):
    """Coerce Python bools to :class:`BLit`; pass predicates through."""
    if isinstance(value, BExpr):
        return value
    if isinstance(value, bool):
        return BLit(value)
    raise TypeError("cannot coerce %r to a predicate" % (value,))


def implies(antecedent, consequent):
    """The predicate ``antecedent => consequent``."""
    return BOr(as_bexpr(antecedent).negate(), as_bexpr(consequent))


def conj(*preds):
    """N-ary conjunction (``TRUE`` when empty)."""
    preds = [as_bexpr(p) for p in preds]
    if not preds:
        return TRUE
    out = preds[0]
    for p in preds[1:]:
        out = BAnd(out, p)
    return out


def disj(*preds):
    """N-ary disjunction (``FALSE`` when empty)."""
    preds = [as_bexpr(p) for p in preds]
    if not preds:
        return FALSE
    out = preds[0]
    for p in preds[1:]:
        out = BOr(out, p)
    return out
