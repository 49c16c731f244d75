"""Finite value domains.

The paper works with arbitrary (possibly infinite) value sets ``PVals`` and
``LVals``.  To make validity of hyper-triples *decidable* — which is what
lets this reproduction check every rule and every example exhaustively —
we instantiate them with finite domains.  All definitions of the logic are
schematic in the domain, so nothing about the logic itself changes; see
DESIGN.md ("Substitutions").

A domain is simply an ordered, duplicate-free collection of hashable
values.  ``x := nonDet()`` ranges over the whole domain.
"""

from .errors import DomainError


def typed_value(value):
    """``value`` tagged with its type, through tuples: ``1``, ``1.0`` and
    ``True`` are equal in Python but distinct as typed values."""
    if type(value) is tuple:
        return tuple(map(typed_value, value))
    return (type(value), value)


class Domain:
    """A finite, ordered set of values.

    Parameters
    ----------
    values:
        Iterable of hashable values.  Order is preserved; duplicates are
        rejected so that enumeration counts are meaningful.
    name:
        Optional human-readable name used by ``repr``.

    Equality, hashing and :func:`~repro.deps.fingerprint.fingerprint`
    all read one content, the type-tagged values: ``BOOLS`` and
    ``IntRange(0, 1)`` differ, and the name takes no part.
    """

    __slots__ = ("_values", "_index", "_key", "_hash", "name")

    def __init__(self, values, name=None):
        vals = tuple(values)
        index = {}
        for i, v in enumerate(vals):
            if v in index:
                raise DomainError("duplicate domain value: %r" % (v,))
            index[v] = i
        self._values = vals
        self._index = index
        # computed once: image caches hash the domain on every lookup
        self._key = typed_value(vals)
        self._hash = hash(self._key)
        self.name = name or "Domain"

    @property
    def values(self):
        """The values of the domain, as a tuple (stable order)."""
        return self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __contains__(self, value):
        return value in self._index

    def __eq__(self, other):
        return isinstance(other, Domain) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild from the values: ``_hash`` is only valid in the process
        # that computed it (type and ``str`` hashes vary per interpreter)
        return (Domain, (self._values, self.name))

    def __repr__(self):
        if len(self._values) <= 8:
            return "%s(%r)" % (self.name, list(self._values))
        return "%s(<%d values>)" % (self.name, len(self._values))

    def index_of(self, value):
        """Position of ``value`` in the domain (raises DomainError if absent)."""
        try:
            return self._index[value]
        except KeyError:
            raise DomainError("value %r not in %r" % (value, self))

    def check(self, value):
        """Return ``value`` unchanged, raising DomainError if it is absent."""
        if value not in self._index:
            raise DomainError("value %r not in %r" % (value, self))
        return value


class IntRange(Domain):
    """The integers ``lo..hi`` inclusive — the workhorse domain."""

    def __init__(self, lo, hi):
        if lo > hi:
            raise DomainError("empty IntRange(%d, %d)" % (lo, hi))
        super().__init__(range(lo, hi + 1), name="IntRange")
        self.lo = lo
        self.hi = hi

    def __reduce__(self):
        return (IntRange, (self.lo, self.hi))

    def __repr__(self):
        return "IntRange(%d, %d)" % (self.lo, self.hi)


BOOLS = Domain((False, True), name="Bools")
"""The two-element Boolean domain."""


def bool_domain():
    """The Boolean domain ``{False, True}``."""
    return BOOLS


def tuple_domain(base, max_len, name=None):
    """All tuples over ``base`` of length at most ``max_len``.

    Used to model the list values of the Fig. 6 one-time-pad example.
    The size grows as ``sum(|base|^k)`` so keep both arguments tiny.
    """
    base_vals = tuple(base)
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [t + (v,) for t in layer for v in base_vals]
        out.extend(layer)
    return Domain(out, name=name or "TupleDomain")
