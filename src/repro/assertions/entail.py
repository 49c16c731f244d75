"""Entailment between hyper-assertions (Def. 3).

``P |= Q`` iff every set of extended states satisfying ``P`` satisfies
``Q``.  Over a finite universe of extended states this is decidable by
enumerating the ``2**n`` subsets; the SAT backend of :mod:`repro.solver`
offers the same verdicts via a propositional encoding when the assertions
are syntactic.

The rules that require entailments (Cons, WhileSync's ``I |= low(b)``,
LUpdate, ...) consume an :class:`EntailmentOracle`.  Three oracle flavors:

- ``brute``  — exhaustive subset enumeration (the reference),
- ``sat``    — the propositional encoding (syntactic assertions only),
- ``assume`` — record the entailment as an unchecked assumption, for
  reasoning that is schematic in the domain (every recorded assumption is
  reported on the resulting proof object).

A ``sat`` oracle silently degrades to ``brute`` on assertions outside the
groundable fragment; the method that *actually* decided each query is
recorded on the oracle (:attr:`EntailmentOracle.last_method`,
:meth:`EntailmentOracle.used_since`) so callers can report it faithfully.

Brute-force enumeration evaluates both assertions through the
compile-once layer (:func:`repro.compile.compile_assertion`): each
assertion is compiled to a whole-set closure once per query and every
subset pays direct closure calls — same verdicts as the interpreted
``holds``, which the property tests cross-check.  Pass
``compile_cache=False`` to force interpreted evaluation.
"""

import threading

from ..errors import EntailmentError
from ..util import iter_subsets


def _holds_fn(assertion, domain, compile_cache):
    """``S -> bool`` for one assertion: compiled unless disabled."""
    if compile_cache is False:
        return lambda subset: assertion.holds(subset, domain)
    from ..compile.assertion import compile_assertion

    return compile_assertion(assertion, domain, compile_cache).holds


def entails(pre, post, universe, domain, max_size=None, presorted=False,
            compile_cache=None):
    """``pre |= post`` over all subsets of ``universe`` (up to ``max_size``)."""
    return (
        find_entailment_counterexample(
            pre, post, universe, domain, max_size, presorted=presorted,
            compile_cache=compile_cache,
        )
        is None
    )


def find_entailment_counterexample(
    pre, post, universe, domain, max_size=None, presorted=False,
    compile_cache=None,
):
    """A set ``S`` with ``pre(S)`` and ``not post(S)``, or ``None``.

    Pass ``presorted=True`` when ``universe`` is already in canonical
    (``repr``-sorted) order — e.g. :attr:`EntailmentOracle.universe` — to
    skip the per-call sort.  ``compile_cache`` selects the compile cache
    for the assertion closures (``None``: module-wide cache; ``False``:
    interpreted evaluation).
    """
    pre_holds = _holds_fn(pre, domain, compile_cache)
    post_holds = _holds_fn(post, domain, compile_cache)
    states = universe if presorted else sorted(universe, key=repr)
    for subset in iter_subsets(states, max_size=max_size):
        if pre_holds(subset) and not post_holds(subset):
            return subset
    return None


def equivalent(a, b, universe, domain, max_size=None):
    """Semantic equivalence of two hyper-assertions over the universe."""
    return entails(a, b, universe, domain, max_size) and entails(
        b, a, universe, domain, max_size
    )


def satisfiable(assertion, universe, domain, max_size=None, presorted=False,
                compile_cache=None):
    """Some subset of the universe satisfies ``assertion``."""
    holds = _holds_fn(assertion, domain, compile_cache)
    states = universe if presorted else sorted(universe, key=repr)
    for subset in iter_subsets(states, max_size=max_size):
        if holds(subset):
            return True
    return False


class EntailmentOracle:
    """Discharges the entailment side conditions of proof rules.

    Parameters
    ----------
    universe:
        Iterable of all extended states considered (ignored by the
        ``assume`` method).  Sorted once at construction;
        :attr:`universe` is the canonical tuple reused by every query.
    domain:
        Value domain for evaluating syntactic assertions.
    method:
        ``"brute"`` (default) or ``"sat"``.
    max_size:
        Optional cap on the subset size enumerated (keeps the cost
        polynomial when only small sets matter — unsound in general, so
        off by default).
    compile_cache:
        Optional shared :class:`~repro.compile.cache.CompileCache` for
        the brute-force assertion closures (``None``: the module-wide
        cache; a :class:`~repro.api.session.Session` passes its own).
    """

    def __init__(self, universe, domain, method="brute", max_size=None,
                 compile_cache=None):
        self.universe = tuple(sorted(universe, key=repr))
        self.domain = domain
        self.method = method
        self.max_size = max_size
        self.compile_cache = compile_cache
        self.assumed = []
        # Method bookkeeping is thread-local so concurrent sessions
        # (Session.verify_many with workers) attribute queries correctly.
        self._tl = threading.local()
        # Cumulative per-method decision counts are cross-thread (one
        # lock-guarded table) so a batch report can aggregate them; see
        # :meth:`method_counts`.
        self._counts = {}
        self._counts_lock = threading.Lock()
        # Lazily-built persistent SAT backend (method="sat" only): one
        # IncrementalEntailment per oracle retains learned clauses and
        # subformula encodings across the thousands of near-identical
        # queries a chain run issues.  See solver/encode.py.
        self._incremental = None
        self._incremental_lock = threading.Lock()

    # -- method bookkeeping ------------------------------------------------
    def _record(self, method):
        used = getattr(self._tl, "used", None)
        if used is None:
            used = []
            self._tl.used = used
        used.append(method)
        self._tl.last = method
        with self._counts_lock:
            self._counts[method] = self._counts.get(method, 0) + 1

    def method_counts(self):
        """Cumulative queries decided per method, across all threads.

        Keys are the methods that actually decided queries (``"sat"``,
        ``"brute"``, ``"assume"``); a memoizing oracle counts cache hits
        under the method that originally decided the entry, so the totals
        reflect *usage*, not recomputation.  Snapshot before and after a
        batch and subtract to attribute counts to it
        (:meth:`~repro.api.session.Session.verify_many` does exactly
        that for the ``entailment_sat`` / ``entailment_brute`` keys of
        :attr:`Report.counters`).
        """
        with self._counts_lock:
            return dict(self._counts)

    @property
    def last_method(self):
        """The method that actually decided the most recent query on this
        thread (``"sat"``, ``"brute"`` or ``"assume"``) — *not* the
        configured :attr:`method`, which a ``sat`` oracle silently
        abandons for non-groundable operands."""
        return getattr(self._tl, "last", None)

    def used_mark(self):
        """An opaque mark for :meth:`used_since` (call before a proof)."""
        return len(getattr(self._tl, "used", ()))

    def used_since(self, mark=0):
        """Distinct methods used since ``mark``, in first-use order."""
        used = getattr(self._tl, "used", ())
        return tuple(dict.fromkeys(used[mark:]))

    def reset_used(self):
        """Forget this thread's per-task method tracking.

        Clears both the history list (keeps it bounded across a
        long-lived session) *and* :attr:`last_method` — a task that
        makes no entailment queries must never inherit the previous
        task's attribution.  The tracking is thread-local, so a
        ``verify_many`` worker pool resets only its own task's state;
        the cumulative :meth:`method_counts` table is untouched.
        """
        self._tl.used = []
        self._tl.last = None

    def _sat_incremental(self):
        """The oracle's persistent SAT backend, built on first use."""
        backend = self._incremental
        if backend is None:
            from ..solver.encode import IncrementalEntailment

            with self._incremental_lock:
                backend = self._incremental
                if backend is None:
                    backend = IncrementalEntailment(self.universe, self.domain)
                    self._incremental = backend
        return backend

    # -- queries -----------------------------------------------------------
    def entails(self, pre, post):
        """True iff ``pre |= post``; never raises on a negative verdict."""
        if self.method == "sat":
            from ..solver.encode import Unsupported

            try:
                verdict = self._sat_incremental().entails(pre, post)
            except Unsupported:
                pass  # fall back to brute force for non-syntactic operands
            else:
                self._record("sat")
                return verdict
        verdict = entails(
            pre, post, self.universe, self.domain, self.max_size, presorted=True,
            compile_cache=self.compile_cache,
        )
        self._record("brute")
        return verdict

    def find_counterexample(self, pre, post):
        """A witness set refuting ``pre |= post`` (or ``None``).

        A ``sat`` oracle decodes it from one SAT model
        (:func:`~repro.solver.encode.entailment_model`); brute-force
        enumeration is left to ``brute`` oracles and to operands the
        SAT encoding cannot ground.
        """
        if self.method == "sat":
            from ..solver.encode import Unsupported, entailment_model

            try:
                return entailment_model(pre, post, self.universe, self.domain)
            except Unsupported:
                pass
        return find_entailment_counterexample(
            pre, post, self.universe, self.domain, self.max_size, presorted=True,
            compile_cache=self.compile_cache,
        )

    def satisfiable(self, assertion):
        """Some subset of the universe satisfies ``assertion``."""
        return satisfiable(
            assertion, self.universe, self.domain, self.max_size, presorted=True,
            compile_cache=self.compile_cache,
        )

    def require(self, pre, post, context=""):
        """Raise :class:`EntailmentError` unless ``pre |= post``.

        The error's text names a counterexample's size; the search for
        it runs only when the text is read.
        """
        if not self.entails(pre, post):

            def message():
                cex = self.find_counterexample(pre, post)
                return (
                    "entailment failed%s: %s |=/= %s (counterexample: "
                    "%d-state set)"
                    % (
                        " in " + context if context else "",
                        pre.describe(),
                        post.describe(),
                        -1 if cex is None else len(cex),
                    )
                )

            raise EntailmentError(message)
        return True

    def assume(self, pre, post, context=""):
        """Record an entailment as an unchecked assumption."""
        self.assumed.append((pre, post, context))
        return True


class AssumingOracle(EntailmentOracle):
    """An oracle that *records* every entailment instead of checking it.

    Use when the reasoning is schematic in an infinite domain and the user
    takes responsibility for the entailments (they are all listed on
    ``oracle.assumed`` for audit).
    """

    def __init__(self):
        super().__init__((), None)

    def entails(self, pre, post):
        self.assumed.append((pre, post, ""))
        self._record("assume")
        return True

    def require(self, pre, post, context=""):
        self.assumed.append((pre, post, context))
        self._record("assume")
        return True
