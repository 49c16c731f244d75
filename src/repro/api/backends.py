"""Pluggable verification backends.

Each backend wraps one of the repository's engines behind the small
:class:`Backend` protocol, mirroring the paper's separation of concerns:

- :class:`SyntacticWPBackend` — the Fig. 3 backward syntactic-wp rules
  with the closing entailment discharged by the session oracle;
- :class:`LoopBackend` — the Fig. 5 annotated-loop rules (WhileSync) for
  ``while`` programs carrying an invariant annotation;
- :class:`SymbolicBackend` — the one-SAT-call validity decision over
  the groundable fragment (re-exported from
  :mod:`repro.symbolic.backend`);
- :class:`ExhaustiveBackend` — the Def. 5 semantic oracle, enumerating
  every initial set over the universe;
- :class:`SampledBackend` — the capped / randomized oracle for universes
  whose full powerset is out of reach.

Backends never raise on an out-of-fragment task or a blown budget: they
return an inconclusive :class:`~repro.api.outcome.Undecided` and the
session's chain moves on.  Decisive results are
:class:`~repro.api.outcome.Proved` (carrying the checked derivation when
the engine builds one) or :class:`~repro.api.outcome.Refuted` (carrying
the concrete :class:`~repro.checker.counterexample.Witness`).  The
``session`` argument of :meth:`Backend.attempt` supplies the shared
state (``session.universe`` and ``session.oracle``).
"""

import random
from typing import Protocol

from ..assertions.syntax import SynAssertion
from ..checker.counterexample import Witness
from ..errors import EntailmentError, ProofError
from ..lang.analysis import is_loop_free
from ..lang.sugar import match_while
from ..logic.core_rules import rule_cons
from ..logic.loop_rules import rule_while_sync, while_sync_body_pre
from ..logic.outline import verify_straightline
from ..symbolic.backend import SymbolicBackend  # noqa: F401  (re-export)
from .outcome import Proved, Refuted, Undecided


class Backend(Protocol):
    """What a verification backend must provide.

    ``supports`` is a cheap syntactic filter (wrong fragment → the chain
    skips the backend without starting its budget); ``attempt`` does the
    actual work and must return an :class:`~repro.api.outcome.Outcome`,
    using :class:`~repro.api.outcome.Undecided` rather than raising when
    it cannot decide.
    """

    name: str

    def supports(self, task):
        ...

    def attempt(self, task, session, budget=None):
        ...


def _expired(budget):
    return budget is not None and budget.expired


#: Outcomes of :func:`_scan_initial_sets`.
_REFUTED, _PASSED, _EXHAUSTED = "refuted", "passed", "budget-exhausted"


def _scan_initial_sets(task, session, budget, max_size=None):
    """The one oracle enumeration every backend shares.

    Walks the candidate initial sets (up to ``max_size``) through the
    session's precomputed-image :class:`~repro.checker.engine.CheckerEngine`
    — every program state is executed at most once per command, cached in
    ``session.images`` across tasks and threads — polling the budget
    between sets.  Returns ``(status, witness, checked)`` where
    ``status`` is ``_REFUTED`` (``witness`` is the
    :class:`~repro.checker.counterexample.Witness`), ``_PASSED`` (no
    enumerated set refutes the triple) or ``_EXHAUSTED`` (budget tripped
    after ``checked`` sets).
    """
    # walk raw id-bitmasks and decode only the refuting candidate —
    # accepted sets never leave machine-word form
    universe = session.universe
    checked = 0
    for chosen, acc, ok in session.engine.scan_masks(
        task.pre, task.command, task.post, max_size=max_size
    ):
        if _expired(budget):
            return _EXHAUSTED, None, checked
        checked += 1
        if acc is None:  # precondition rejected the subset
            continue
        if not ok:
            witness = Witness(universe.states_of(chosen), universe.states_of(acc))
            return _REFUTED, witness, checked
    return _PASSED, None, checked


def _oracle_suffix(oracle, mark):
    """The methods that actually decided entailments since ``mark``."""
    used = oracle.used_since(mark)
    return "+".join(used) if used else oracle.method


class SyntacticWPBackend:
    """Fig. 3 backward rules: syntactic wp + one closing entailment.

    Applies to loop-free straight-line commands with a syntactic
    postcondition.  A failed closing entailment ``P |= wp(C, Q)`` is a
    genuine refutation (the wp is exact for straight-line code), and a
    set ``S`` with ``P(S)`` and ``¬wp(C, Q)(S)`` is a Def. 5 witness:
    ``sem(C, S)`` violates ``Q``.  When the SAT oracle decided that
    entailment, the witness is the oracle's least refuting set
    (:meth:`~repro.assertions.entail.EntailmentOracle.find_counterexample`)
    with its image from the session's cached rows, re-checked against
    the task.  Otherwise (a ``brute`` oracle, operands the encoding
    cannot ground, or a ``max_cex_size`` cap on the witness) the Def. 5
    scan finds the smallest refuting initial set.
    """

    name = "syntactic-wp"

    def __init__(self, max_cex_size=None):
        self.max_cex_size = max_cex_size

    def supports(self, task):
        return is_loop_free(task.command) and isinstance(task.post, SynAssertion)

    def attempt(self, task, session, budget=None):
        oracle = session.oracle
        mark = oracle.used_mark()
        try:
            proof = verify_straightline(task.pre, task.command, task.post, oracle)
        except EntailmentError as err:
            return self._refute(task, session, budget, oracle, mark, err)
        except ProofError as err:
            return Undecided(self.name, self.name, reason=str(err))
        method = "%s+%s" % (self.name, _oracle_suffix(oracle, mark))
        return Proved(
            self.name, method, proof=proof, assumptions=proof.all_assumptions()
        )

    def _refute(self, task, session, budget, oracle, mark, err):
        method = "%s+%s" % (self.name, _oracle_suffix(oracle, mark))
        witness = self._model_witness(task, session, oracle, err)
        if witness is not None:
            return Refuted(self.name, method, witness=witness)
        status, witness, checked = _scan_initial_sets(
            task, session, budget, self.max_cex_size
        )
        if status is _EXHAUSTED:
            return Undecided(
                self.name,
                method,
                reason="budget exhausted after %d sets while searching for a "
                "counterexample" % checked,
            )
        if status is _REFUTED:
            return Refuted(self.name, method, witness=witness)
        # The closing entailment failed but no initial set (within the cap)
        # refutes the triple — report the refutation without a witness,
        # matching the legacy facade's behavior under ``max_set_size``.
        return Refuted(
            self.name,
            method,
            note="wp entailment failed; no counterexample within the size cap",
        )

    def _model_witness(self, task, session, oracle, err):
        """The witness from the SAT oracle's least refuting set of the
        failing entailment, or ``None`` when that route does not apply
        or its set does not refute the task."""
        if (
            self.max_cex_size is not None
            or err.pre is None
            or oracle.last_method != "sat"
        ):
            return None
        pre_set = oracle.find_counterexample(err.pre, err.post)
        if pre_set is None:
            return None
        post_set = session.engine.sem(task.command, pre_set)
        domain = session.universe.domain
        if not task.pre.holds(pre_set, domain) or task.post.holds(post_set, domain):
            return None
        return Witness(pre_set, post_set)


class LoopBackend:
    """Fig. 5 annotated-loop rules (WhileSync).

    Applies to ``while (b) { C }`` tasks carrying a syntactic invariant
    annotation with a loop-free body.  Establishes ``{I ∧ □b} C {I}`` by
    syntactic wp, closes the loop with WhileSync, and bridges the
    annotation to the task's pre/post with Cons.  A failed entailment
    here only means the *annotation* does not work — the triple may still
    hold — so the outcome is :class:`Undecided`, never :class:`Refuted`.
    """

    name = "loop"

    def supports(self, task):
        return task.invariant is not None and match_while(task.command) is not None

    def attempt(self, task, session, budget=None):
        guard, body = match_while(task.command)
        invariant = task.invariant
        if not isinstance(invariant, SynAssertion):
            return Undecided(self.name, self.name, reason="invariant must be syntactic")
        if not is_loop_free(body):
            return Undecided(
                self.name, self.name, reason="nested loops are not supported"
            )
        oracle = session.oracle
        mark = oracle.used_mark()
        try:
            body_proof = verify_straightline(
                while_sync_body_pre(invariant, guard), body, invariant, oracle
            )
            loop_proof = rule_while_sync(invariant, guard, body_proof, oracle)
            proof = rule_cons(
                task.pre, task.post, loop_proof, oracle, "loop annotation bridge"
            )
        except EntailmentError as err:
            return Undecided(
                self.name,
                "%s+%s" % (self.name, _oracle_suffix(oracle, mark)),
                reason="invariant not established: %s" % err,
            )
        except ProofError as err:
            return Undecided(self.name, self.name, reason=str(err))
        method = "loop-sync+%s" % _oracle_suffix(oracle, mark)
        return Proved(
            self.name, method, proof=proof, assumptions=proof.all_assumptions()
        )


class ExhaustiveBackend:
    """Def. 5 semantic oracle: enumerate every initial set.

    Complete relative to the universe — always decides, given time.  The
    budget is polled between initial sets, so a blown budget yields an
    inconclusive outcome rather than an unbounded stall.
    """

    name = "exhaustive"
    method = "oracle"

    def supports(self, task):
        return True

    def attempt(self, task, session, budget=None):
        status, witness, checked = _scan_initial_sets(task, session, budget)
        if status is _EXHAUSTED:
            return Undecided(
                self.name,
                self.method,
                reason="budget exhausted after %d of %d initial sets"
                % (checked, 2 ** session.universe.size()),
            )
        if status is _REFUTED:
            return Refuted(self.name, self.method, witness=witness)
        return Proved(self.name, self.method)


class SampledBackend:
    """Capped or randomized semantic oracle for large universes.

    Two modes:

    - ``samples=None`` (default): enumerate initial sets of size at most
      ``max_size``.  A refutation is always sound; a pass is definitive
      only when the cap actually covers the universe.  A genuinely
      capped pass stays inconclusive (the chain's later backends may
      still refute the triple) unless ``claim_capped_pass=True``, which
      reports it as proved with the cap recorded in the method string
      (``oracle(≤k)``) — the legacy facade's documented
      under-approximation, only defensible as the *last* backend of a
      chain (see :func:`~repro.api.session.default_backends`);
    - ``samples=n``: draw ``n`` random subsets (sizes up to
      ``max_size``).  Only useful to *find* counterexamples: a refutation
      is sound, a pass is merely evidence and stays inconclusive.
    """

    name = "sampled"

    def __init__(self, max_size=None, samples=None, seed=0, claim_capped_pass=False):
        self.max_size = max_size
        self.samples = samples
        self.seed = seed
        self.claim_capped_pass = claim_capped_pass

    def supports(self, task):
        return True

    def attempt(self, task, session, budget=None):
        if self.samples is None:
            return self._capped(task, session, budget)
        return self._sampled(task, session, budget)

    def _capped(self, task, session, budget):
        method = (
            "oracle" if self.max_size is None else "oracle(≤%d)" % self.max_size
        )
        status, witness, checked = _scan_initial_sets(
            task, session, budget, self.max_size
        )
        if status is _EXHAUSTED:
            return Undecided(
                self.name,
                method,
                reason="budget exhausted after %d initial sets" % checked,
            )
        if status is _REFUTED:
            return Refuted(self.name, method, witness=witness)
        # A pass is only definitive when every initial set was enumerated.
        complete = self.max_size is None or self.max_size >= session.universe.size()
        if complete or self.claim_capped_pass:
            return Proved(self.name, method)
        return Undecided(
            self.name,
            method,
            reason="no refutation among initial sets of size ≤ %d "
            "(under-approximate pass, not a proof)" % self.max_size,
        )

    def _sampled(self, task, session, budget):
        from ..compile import compile_assertion

        universe = session.universe
        domain = universe.domain
        method = "sampled(%d)" % self.samples
        rng = random.Random(self.seed)
        states = list(universe.ext_states())
        cap = self.max_size if self.max_size is not None else 4
        # the draws are independent sets, so whole-set (compiled) holds —
        # compiled once per task through the session's compile cache
        pre_holds = compile_assertion(task.pre, domain, session.compiles).holds
        post_holds = compile_assertion(task.post, domain, session.compiles).holds
        for drawn in range(self.samples):
            if _expired(budget):
                return Undecided(
                    self.name,
                    method,
                    reason="budget exhausted after %d samples" % drawn,
                )
            k = rng.randint(0, cap)
            subset = frozenset(rng.sample(states, min(k, len(states))))
            if not pre_holds(subset):
                continue
            post_set = session.engine.sem(task.command, subset)
            if not post_holds(post_set):
                return Refuted(
                    self.name, method, witness=Witness(subset, post_set)
                )
        return Undecided(
            self.name,
            method,
            reason="%d random subsets found no refutation (evidence, not proof)"
            % self.samples,
        )
