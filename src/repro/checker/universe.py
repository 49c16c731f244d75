"""Finite universes of extended states.

A :class:`Universe` declares the program variables, logical variables and
the shared finite value domain, and enumerates every extended state over
them.  The oracle checker quantifies hyper-triples over subsets of this
enumeration, turning Def. 5 into a finite (if exponential) check.

The number of extended states is ``|domain| ** |pvars| * |lvar_domain| **
|lvars|``; validity checking enumerates its powerset, deciding each
subset by unioning precomputed per-state images (see
:mod:`repro.checker.engine`) — ``O(n · exec + 2**n · union)`` for ``n``
extended states, so the powerset, not the executions, is the budget to
watch.  Keep the declaration tiny (two variables over three values is
already 512 subsets).

Each universe also *interns* its extended states to dense integer ids
(``ext_states()[i]`` has id ``i``), letting the engine and the symbolic
encoder represent sets of states as int bitmasks (see
:mod:`repro.checker.bitset`) and key per-state tables by id instead of
rehashing :class:`~repro.semantics.state.ExtState` objects.  The table
is growable: program arithmetic can step outside the declared grid, so
image states beyond ``ext_states()`` are appended fresh ids on first
sight (thread-safely — sessions share universes across worker threads).
"""

import threading
from itertools import product

from ..semantics.state import ExtState, State


class Universe:
    """All extended states over declared variables and a finite domain.

    Parameters
    ----------
    pvars:
        Names of program variables.
    domain:
        The shared finite value :class:`~repro.values.Domain`.
    lvars:
        Names of logical variables (default: none).
    lvar_domain:
        Optional separate domain for logical variables (default: ``domain``).
    """

    def __init__(self, pvars, domain, lvars=(), lvar_domain=None):
        self.pvars = tuple(sorted(pvars))
        self.lvars = tuple(sorted(lvars))
        self.domain = domain
        self.lvar_domain = lvar_domain if lvar_domain is not None else domain
        self._states = None
        self._ids = None  # state -> dense id (ext_states order, growable)
        self._by_id = None  # id -> state (list, parallel to _ids)
        self._intern_lock = threading.Lock()

    def program_states(self):
        """All program states (tuple ordered deterministically)."""
        out = []
        for combo in product(self.domain.values, repeat=len(self.pvars)):
            out.append(State(dict(zip(self.pvars, combo))))
        return tuple(out)

    def logical_states(self):
        """All logical states."""
        out = []
        for combo in product(self.lvar_domain.values, repeat=len(self.lvars)):
            out.append(State(dict(zip(self.lvars, combo))))
        return tuple(out)

    def ext_states(self):
        """All extended states (cached)."""
        if self._states is None:
            progs = self.program_states()
            logs = self.logical_states()
            self._states = tuple(ExtState(l, p) for l in logs for p in progs)
        return self._states

    # -- interning ---------------------------------------------------------
    def _intern(self):
        with self._intern_lock:
            if self._ids is None:
                states = self.ext_states()
                self._by_id = list(states)
                self._ids = {phi: i for i, phi in enumerate(states)}
        return self._ids

    def index_of(self, phi):
        """The dense id of ``phi`` — O(1); states outside the declared
        grid (image states of grid-escaping programs) are appended fresh
        ids on first sight."""
        ids = self._ids
        if ids is None:
            ids = self._intern()
        i = ids.get(phi)
        if i is not None:
            return i
        with self._intern_lock:
            i = ids.get(phi)
            if i is None:
                i = len(self._by_id)
                self._by_id.append(phi)
                ids[phi] = i
        return i

    def state_of(self, i):
        """The extended state with dense id ``i`` — O(1)."""
        if self._ids is None:
            self._intern()
        return self._by_id[i]

    def mask_of(self, states):
        """Encode an iterable of extended states as an id bitmask."""
        index_of = self.index_of
        mask = 0
        for phi in states:
            mask |= 1 << index_of(phi)
        return mask

    def states_of(self, mask):
        """Decode an id bitmask back to a ``frozenset`` of states."""
        if self._ids is None:
            self._intern()
        by_id = self._by_id
        out = []
        while mask:
            low = mask & -mask
            out.append(by_id[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def size(self):
        """Number of extended states, computed arithmetically.

        ``|domain| ** |pvars| * |lvar_domain| ** |lvars|`` — this never
        materializes the enumeration, so sizing (or repr-ing, e.g. in a
        debugger) a huge universe stays O(1).
        """
        return len(self.domain) ** len(self.pvars) * len(self.lvar_domain) ** len(
            self.lvars
        )

    def restrict(self, predicate):
        """The extended states satisfying a Python predicate ``φ -> bool``."""
        return tuple(phi for phi in self.ext_states() if predicate(phi))

    def __repr__(self):
        return "Universe(pvars=%r, lvars=%r, %r: %d states)" % (
            self.pvars,
            self.lvars,
            self.domain,
            self.size(),
        )


def small_universe(pvars, lo, hi, lvars=(), llo=None, lhi=None):
    """Convenience: a Universe over integer ranges.

    ``small_universe(["x"], 0, 2)`` declares one program variable over
    ``{0, 1, 2}``.
    """
    from ..values import IntRange

    domain = IntRange(lo, hi)
    ldom = None
    if llo is not None:
        ldom = IntRange(llo, lhi if lhi is not None else llo)
    return Universe(pvars, domain, lvars=lvars, lvar_domain=ldom)
