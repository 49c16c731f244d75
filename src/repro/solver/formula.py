"""Propositional formulas.

Atoms are identified by arbitrary hashable names.  Constructors perform
light simplification (constant folding, flattening) so that grounded
hyper-assertions stay small.

The n-ary nodes cache their hash on first use: grounding shares one
subformula object among many parents, and every structural dictionary
downstream (the incremental solver's literal map, entailment memos)
would otherwise rehash the whole subtree on each lookup.  The cache is
dropped on pickling — ``str`` hashes are seeded per process, so a hash
carried into another interpreter would break set and dict membership
there — and recomputed on first use after unpickling.
"""

from dataclasses import dataclass
from typing import Tuple


class Formula:
    """Abstract base of propositional formulas."""

    def evaluate(self, assignment):
        """Truth value under ``assignment`` (dict name -> bool)."""
        raise NotImplementedError

    def atoms(self):
        """The set of atom names occurring in the formula."""
        raise NotImplementedError

    def __and__(self, other):
        return fand(self, other)

    def __or__(self, other):
        return f_or(self, other)

    def __invert__(self):
        return fnot(self)


@dataclass(frozen=True)
class FTrue(Formula):
    """The constant ``true``."""

    def evaluate(self, assignment):
        return True

    def atoms(self):
        return frozenset()


@dataclass(frozen=True)
class FFalse(Formula):
    """The constant ``false``."""

    def evaluate(self, assignment):
        return False

    def atoms(self):
        return frozenset()


@dataclass(frozen=True)
class FVar(Formula):
    """An atom."""

    name: object

    def evaluate(self, assignment):
        return bool(assignment[self.name])

    def atoms(self):
        return frozenset((self.name,))


@dataclass(frozen=True)
class FNot(Formula):
    """Negation."""

    operand: Formula

    def evaluate(self, assignment):
        return not self.operand.evaluate(assignment)

    def atoms(self):
        return self.operand.atoms()


def _cached_hash(self):
    # the dataclass default, ``hash((self.parts,))``, computed once
    h = self.__dict__.get("_hash")
    if h is None:
        h = hash((self.parts,))
        object.__setattr__(self, "_hash", h)
    return h


def _reduce_parts(self):
    # rebuild from the parts only: a cached hash never crosses processes
    return (type(self), (self.parts,))


@dataclass(frozen=True)
class FAnd(Formula):
    """N-ary conjunction."""

    parts: Tuple[Formula, ...]

    __hash__ = _cached_hash
    __reduce__ = _reduce_parts

    def evaluate(self, assignment):
        return all(p.evaluate(assignment) for p in self.parts)

    def atoms(self):
        out = frozenset()
        for p in self.parts:
            out |= p.atoms()
        return out


@dataclass(frozen=True)
class FOr(Formula):
    """N-ary disjunction."""

    parts: Tuple[Formula, ...]

    __hash__ = _cached_hash
    __reduce__ = _reduce_parts

    def evaluate(self, assignment):
        return any(p.evaluate(assignment) for p in self.parts)

    def atoms(self):
        out = frozenset()
        for p in self.parts:
            out |= p.atoms()
        return out


def fvar(name):
    """Atom constructor."""
    return FVar(name)


def fnot(operand):
    """Simplifying negation."""
    if isinstance(operand, FTrue):
        return FFalse()
    if isinstance(operand, FFalse):
        return FTrue()
    if isinstance(operand, FNot):
        return operand.operand
    return FNot(operand)


def fand(*parts):
    """Simplifying, flattening conjunction."""
    flat = []
    for p in parts:
        kind = type(p)  # exact classes: formula nodes are never subclassed
        if kind is FAnd:
            flat.extend(p.parts)
        elif kind is FFalse:
            return FFalse()
        elif kind is not FTrue:
            flat.append(p)
    if not flat:
        return FTrue()
    if len(flat) == 1:
        return flat[0]
    return FAnd(tuple(flat))


def f_or(*parts):
    """Simplifying, flattening disjunction."""
    flat = []
    for p in parts:
        kind = type(p)
        if kind is FOr:
            flat.extend(p.parts)
        elif kind is FTrue:
            return FTrue()
        elif kind is not FFalse:
            flat.append(p)
    if not flat:
        return FFalse()
    if len(flat) == 1:
        return flat[0]
    return FOr(tuple(flat))


def fimplies(a, b):
    """``a ⇒ b``."""
    return f_or(fnot(a), b)
