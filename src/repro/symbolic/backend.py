"""The symbolic validity backend: ``Proved``/``Refuted`` in one SAT call.

Sits between the proof-theoretic backends (syntactic-wp, loop) and the
enumerating oracle in the default chain: cheaper than ``2**n``
enumeration on every universe, and the only backend whose cost grows
with ``n`` instead of ``2**n`` — the first to decide triples over
universes whose powerset is out of reach (see
``benchmarks/bench_symbolic_backend.py``).

Every Def. 9 syntactic triple is in its fragment, ``∀∃`` posts such as
GNI included.  Tasks it cannot ground — opaque semantic predicates,
``TRUE_H``/``FALSE_H``, set combinators — return
:class:`~repro.api.outcome.Undecided` carrying every recorded fragment
reason, never a silent fallthrough; the chain then falls through to the
enumerating oracle, which decides the full assertion language.  A
refutation carries the SAT model's witness: a valid refuting set, not
necessarily the enumeration's size-ordered first one.
"""

from ..errors import ReproError, SolverError
from ..solver.encode import Unsupported
from .encode import decide_validity
from .fragment import fragment_reasons

__all__ = ["SymbolicBackend"]


def _expired(budget):
    return budget is not None and budget.expired


class SymbolicBackend:
    """Decide ``⊨ {P} C {Q}`` with a single SAT query.

    ``supports`` is always true so that out-of-fragment tasks surface a
    recorded reason from :meth:`attempt` instead of a generic chain skip
    — the ISSUE's "loudly undecided" contract.  The budget is polled
    between the per-state image executions (the only unbounded phase);
    a blown solver decision budget or a diverging image computation
    likewise turns into an inconclusive outcome, never an exception.
    """

    name = "symbolic"
    method = "sat-validity"

    def supports(self, task):
        return True

    def attempt(self, task, session, budget=None):
        # imported here, not at module top: repro.api.backends re-exports
        # this class, so a module-level import of repro.api would close an
        # import cycle before either package finishes initializing
        from ..api.outcome import Proved, Refuted, Undecided

        reasons = tuple(
            dict.fromkeys(fragment_reasons(task.pre) + fragment_reasons(task.post))
        )
        if reasons:
            return Undecided(
                self.name,
                self.method,
                reason="outside symbolic fragment: %s" % "; ".join(reasons),
            )
        engine = session.engine
        universe_states = tuple(session.universe.ext_states())
        image_table = {}
        for executed, phi in enumerate(universe_states):
            if _expired(budget):
                return Undecided(
                    self.name,
                    self.method,
                    reason="budget exhausted after %d of %d state images"
                    % (executed, len(universe_states)),
                )
            try:
                image_table[phi] = engine.image(task.command, phi)
            except ReproError as err:
                return Undecided(
                    self.name,
                    self.method,
                    reason="image computation failed: %s" % err,
                )
        try:
            valid, witness = decide_validity(
                task.pre, task.command, task.post, engine, image_table
            )
        except SolverError as err:
            return Undecided(self.name, self.method, reason=str(err))
        except Unsupported as err:
            # the grounder is the final word on what grounds — still a
            # recorded reason, never a raw exception
            return Undecided(
                self.name,
                self.method,
                reason="outside symbolic fragment: %s" % err,
            )
        except ReproError as err:
            return Undecided(self.name, self.method, reason=str(err))
        if valid:
            return Proved(self.name, self.method)
        return Refuted(self.name, self.method, witness=witness)
