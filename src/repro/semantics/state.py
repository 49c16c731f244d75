"""Program states and extended states.

A *program state* (Def. 1) maps program variables to values.  An
*extended state* (Def. 2) pairs a logical state (mapping logical variables
to values) with a program state: ``φ = (φ_L, φ_P)``.

Both are immutable and hashable, so that sets of (extended) states are
ordinary ``frozenset``s and the extended semantics can be computed with
plain set algebra.

Variables are identified purely by name; the same name may be used as a
program variable and as a logical variable (the paper shares meta
variables too).  States are finite-support maps — looking up an unbound
variable raises ``KeyError``, which keeps accidental variable confusion
loud rather than silently defaulting.
"""

from dataclasses import dataclass


class State:
    """An immutable finite mapping from variable names to values."""

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, mapping=()):
        if isinstance(mapping, State):
            self._items = mapping._items
            self._dict = mapping._dict
            self._hash = mapping._hash
            return
        d = dict(mapping)
        self._dict = d
        self._items = tuple(sorted(d.items(), key=lambda kv: kv[0]))
        self._hash = hash(self._items)

    def __getitem__(self, var):
        return self._dict[var]

    def get(self, var, default=None):
        """Value of ``var``, or ``default`` when unbound."""
        return self._dict.get(var, default)

    def __contains__(self, var):
        return var in self._dict

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return len(self._dict)

    @property
    def vars(self):
        """The bound variable names, sorted."""
        return tuple(k for k, _ in self._items)

    def items(self):
        """The (name, value) pairs, sorted by name."""
        return self._items

    def set(self, var, value):
        """A new state equal to this one except that ``var`` maps to ``value``.

        This is the paper's ``σ[x ↦ v]``.
        """
        d = dict(self._dict)
        d[var] = value
        return State(d)

    def set_many(self, mapping):
        """A new state with several updates applied at once."""
        d = dict(self._dict)
        d.update(mapping)
        return State(d)

    def drop(self, var):
        """A new state with ``var`` removed from the support."""
        d = dict(self._dict)
        d.pop(var, None)
        return State(d)

    def restrict(self, names):
        """A new state keeping only the variables in ``names``."""
        return State({k: v for k, v in self._dict.items() if k in names})

    def __eq__(self, other):
        return isinstance(other, State) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild from the mapping: ``_hash`` is only valid in the process
        # that computed it (``str`` hashes are seeded per interpreter)
        return (State, (self._dict,))

    def __repr__(self):
        return "State({%s})" % ", ".join("%s=%r" % kv for kv in self._items)


@dataclass(frozen=True)
class ExtState:
    """An extended state ``φ = (φ_L, φ_P)`` (Def. 2)."""

    log: State
    prog: State


    def __hash__(self):
        # Cached: extended states key every hot dict and frozenset in the
        # checker engine, and the dataclass default re-hashes both
        # components on every call.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.log, self.prog))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # rebuild from the components: the cached hash is process-local
        return (ExtState, (self.log, self.prog))

    def pvar(self, name):
        """``φ_P(x)`` — the value of program variable ``x``."""
        return self.prog[name]

    def lvar(self, name):
        """``φ_L(x)`` — the value of logical variable ``x``."""
        return self.log[name]

    def with_prog(self, prog):
        """Replace the program component (keeping ``φ_L``)."""
        return ExtState(self.log, prog)

    def with_log(self, log):
        """Replace the logical component (keeping ``φ_P``)."""
        return ExtState(log, self.prog)

    def set_pvar(self, name, value):
        """``(φ_L, φ_P[x ↦ v])``."""
        return ExtState(self.log, self.prog.set(name, value))

    def set_lvar(self, name, value):
        """``(φ_L[x ↦ v], φ_P)``."""
        return ExtState(self.log.set(name, value), self.prog)

    def __repr__(self):
        return "ExtState(log=%r, prog=%r)" % (self.log, self.prog)


def ext_state(log=(), prog=()):
    """Convenience constructor: ``ext_state({'t': 1}, {'x': 0})``."""
    return ExtState(State(log), State(prog))
