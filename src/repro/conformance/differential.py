"""Differential conformance checks: all verdicts must agree.

The paper's central claim is agreement: the semantic oracle (Def. 5),
the syntactic proof rules (Figs. 3/5) and the embedded logics decide the
same hyper-triples.  A :class:`DifferentialChecker` exercises that claim
on one generated trial at a time:

``engine-vs-naive``
    The precomputed-image :class:`~repro.checker.engine.CheckerEngine`
    and the retained naive reference oracle must return the same verdict
    *and the same witness* (the enumeration orders are specified to
    match); the engine run without the state prefilter must also report
    the naive oracle's ``checked_sets``, since both walk the same
    size-ordered candidate sequence.
``terminating-engine-vs-naive``
    Same, for the Def. 24 terminating check.
``sampled-engine-vs-naive``
    Same, for the randomized refutation search (both consume an
    identically-seeded rng, so they must draw the same subsets).
``syntactic-vs-oracle``
    On the straight-line fragment the Fig. 3 wp backend is exact: a
    decided verdict (proved *or* refuted) must match the oracle.
``chain-vs-oracle``
    The session's full default backend chain — including the Fig. 5
    loop backend when the trial carries an invariant annotation — must
    settle on the oracle's verdict.  This is the soundness check for
    the syntactic rules: a proof of a triple the oracle refutes is a
    conformance bug, not a flaky test.
``sampled-soundness``
    A sampled refutation is always sound, so it must imply an oracle
    refutation.
``symbolic-vs-engine``
    The one-SAT-call :class:`~repro.symbolic.SymbolicBackend` vs the
    enumerating engine: a decided symbolic verdict must match the
    oracle's, a symbolic refutation must carry an *independently valid*
    witness (the SAT model's set need not be the engine's size-ordered
    first one, so the witness is re-validated semantically: the pre-set
    satisfies the precondition, its concrete ``sem`` equals the carried
    post-set, and the post-set violates the postcondition), and an
    undecided outcome must record a fragment reason — silent
    fallthrough is itself a disagreement.
``hl-embedding`` / ``il-embedding``
    Props. 2 and 6: classical Hoare Logic validity (and Incorrectness
    Logic validity) of derived judgments over the trial's *command* must
    coincide with validity of their hyper-triple embeddings.
``store-vs-inline``
    The verification service's content-addressed result store
    (:mod:`repro.serve.store`) must be invisible: writing the chain's
    result document to a store and reading it back must decode to an
    object *equal* to the inline result — proof trees, witnesses and
    elapsed floats included — and the content key must be stable across
    re-encodings of the same task.
``incremental-vs-cold``
    The incremental path (:meth:`~repro.api.session.Session.reverify`
    over the fingerprint ledger and dependency-cone invalidation of
    :mod:`repro.deps`) must be invisible too: after verifying a small
    suite in a long-lived warm session, applying a random edit script
    and re-verifying with ``changed=`` must produce results whose wire
    documents — proofs, witnesses, methods — equal a cold
    ``verify_many`` of the edited suite in a fresh session, elapsed
    floats excepted.  A fingerprint collision, an over-eager ledger hit
    or an under-invalidated cone all surface here as a disagreement.

Each disagreement is reported as a :class:`Disagreement` carrying a
*shrunk minimal reproducer* (see :mod:`repro.conformance.shrink`).
``DifferentialChecker(checks=...)`` narrows the battery to a subset of
the check kinds (``python -m repro fuzz --checks`` exposes it).
"""

import random
from dataclasses import dataclass
from typing import Tuple

from ..api.session import Session
from ..assertions.syntax import SynAssertion
from ..codec.mixin import WireCodec
from ..checker.validity import (
    naive_check_terminating_triple,
    naive_check_triple,
    naive_sampled_check_triple,
)
from ..embeddings.hl import check_prop2
from ..embeddings.il import check_prop6
from ..gen.config import FUZZ_CONFIG
from ..gen.triples import Triple, trial_rng
from ..lang.analysis import is_loop_free
from .shrink import shrink_command, shrink_triple

#: Seed salt for the per-trial auxiliary rng (sampled checks, embedding
#: judgments) — separated from the generation stream so that checking a
#: trial can never perturb what the next trial looks like.
_AUX_SALT = 0x5EED

#: Every differential check kind, in battery order.  ``--checks``
#: selectors are matched (by substring) against these names.
CHECK_KINDS = (
    "engine-vs-naive",
    "terminating-engine-vs-naive",
    "sampled-engine-vs-naive",
    "syntactic-vs-oracle",
    "chain-vs-oracle",
    "symbolic-vs-engine",
    "hl-embedding",
    "il-embedding",
    "store-vs-inline",
    "incremental-vs-cold",
)


def _verdict(flag):
    return {True: "valid", False: "invalid"}[bool(flag)]


def _zero_elapsed(node):
    """A wire document with every ``elapsed`` float zeroed — the
    equality the incremental-vs-cold check needs (wall-clock is the one
    field two equal verifications legitimately disagree on)."""
    if isinstance(node, dict):
        return {
            key: (0.0 if key == "elapsed" else _zero_elapsed(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_zero_elapsed(value) for value in node]
    return node


@dataclass(frozen=True)
class Disagreement(WireCodec):
    """One cross-backend disagreement, with a shrunk reproducer.

    Wire-serializable (kind ``disagreement``): a disagreement found by a
    fuzz shard crosses back to the parent — and into CI artifacts — as a
    structured document whose ``reproducer`` decodes to the same minimal
    triple, not as flattened text.
    """

    kind: str
    detail: str
    trial_seed: int
    trial_index: int
    reproducer: Triple

    def describe(self):
        return "%s (trial %d, seed %d): %s\nminimal reproducer:\n%s" % (
            self.kind,
            self.trial_index,
            self.trial_seed,
            self.detail,
            self.reproducer.describe(),
        )


@dataclass(frozen=True)
class TrialOutcome(WireCodec):
    """What one trial's differential pass concluded."""

    trial: object
    oracle_valid: bool
    checks: Tuple[str, ...]
    disagreements: Tuple[Disagreement, ...]

    @property
    def agreed(self):
        return not self.disagreements

    def describe_line(self):
        """The trial-log line — the single source of the byte-for-byte
        format shared by :meth:`FuzzReport.trial_log` and the CLI stream."""
        return "trial %04d %-7s %s" % (
            self.trial.index,
            "valid" if self.oracle_valid else "invalid",
            self.trial.triple.describe_line(),
        )


class DifferentialChecker:
    """Runs every applicable differential check over generated trials.

    One checker owns one :class:`~repro.api.session.Session` (and thus
    one image cache): all trials of a fuzz run share per-state
    executions, which is what keeps thousand-trial runs cheap.

    ``embeddings=False`` skips the HL/IL embedding judgments (they add
    two extra oracle enumerations per trial).

    ``checks`` optionally narrows the battery: an iterable of selector
    strings matched as substrings against :data:`CHECK_KINDS` (so
    ``["symbolic"]`` selects ``symbolic-vs-engine``); a leading ``-``
    excludes instead (``["-embedding"]`` runs everything but the HL/IL
    judgments).  ``None`` (default) runs every applicable check.
    """

    def __init__(self, config=FUZZ_CONFIG, embeddings=True, samples=25, checks=None):
        self.config = config
        self.session = Session(config.pvars, lo=config.lo, hi=config.hi)
        self.universe = self.session.universe
        self.embeddings = embeddings
        self.samples = samples
        self.checks = None if checks is None else tuple(checks)
        self._includes = tuple(
            c for c in self.checks or () if not c.startswith("-")
        )
        self._excludes = tuple(
            c[1:] for c in self.checks or () if c.startswith("-") and len(c) > 1
        )
        # the symbolic cross-validation runs its own backend instance so
        # the check stays meaningful under any session chain configuration
        from ..symbolic import SymbolicBackend

        self._symbolic = SymbolicBackend()
        # the store-vs-inline check's scratch ResultStore, built on first
        # use (the TemporaryDirectory handle keeps it alive and cleans up
        # with the checker)
        self._store = None
        self._store_dir = None
        # the incremental-vs-cold check's long-lived warm session, built
        # on first use: its ledger and caches accumulate
        # across trials, which is exactly the long-lived-session regime
        # the check is meant to exercise
        self._warm = None

    def check_enabled(self, kind):
        """Whether the ``checks`` filter selects this check kind."""
        if any(sel in kind for sel in self._excludes):
            return False
        if self._includes:
            return any(sel in kind for sel in self._includes)
        return True

    # -- individual checks (each returns a detail string or None) --------
    #
    # Each check takes an optional precomputed ``oracle`` CheckResult for
    # the triple: ``check_trial`` runs the exhaustive enumeration once and
    # feeds it to every check, while the shrinker's candidate triples pass
    # None and recompute (their enumerations are over cached images).

    def _oracle(self, triple, oracle=None):
        if oracle is not None:
            return oracle
        return self.session.engine.check(triple.pre, triple.command, triple.post)

    def oracle_disagreement(self, triple, oracle=None):
        engine = self._oracle(triple, oracle)
        naive = naive_check_triple(
            triple.pre, triple.command, triple.post, self.universe
        )
        if engine.valid != naive.valid:
            return "engine says %s, naive oracle says %s" % (
                _verdict(engine.valid),
                _verdict(naive.valid),
            )
        if (
            engine.witness_pre != naive.witness_pre
            or engine.witness_post != naive.witness_post
        ):
            return "verdicts agree (%s) but witnesses differ: engine %r vs naive %r" % (
                _verdict(engine.valid),
                (engine.witness_pre, engine.witness_post),
                (naive.witness_pre, naive.witness_post),
            )
        # the prefilter legitimately skips candidates the naive oracle
        # enumerates, so the count is compared on an unfiltered run
        unfiltered = self.session.engine.check(
            triple.pre, triple.command, triple.post, prefilter=False
        )
        if unfiltered.checked_sets != naive.checked_sets:
            return (
                "the enumeration drifted: engine checked %d sets, naive "
                "oracle checked %d" % (unfiltered.checked_sets, naive.checked_sets)
            )
        return None

    def terminating_disagreement(self, triple):
        engine = self.session.engine.check_terminating(
            triple.pre, triple.command, triple.post
        )
        naive = naive_check_terminating_triple(
            triple.pre, triple.command, triple.post, self.universe
        )
        if engine.valid != naive.valid:
            return "terminating check: engine says %s, naive says %s" % (
                _verdict(engine.valid),
                _verdict(naive.valid),
            )
        if (
            engine.witness_pre != naive.witness_pre
            or engine.witness_post != naive.witness_post
        ):
            return "terminating witnesses differ: engine %r vs naive %r" % (
                (engine.witness_pre, engine.witness_post),
                (naive.witness_pre, naive.witness_post),
            )
        return None

    def sampled_disagreement(self, triple, aux_seed, oracle=None):
        engine = self.session.engine.sampled_check(
            triple.pre,
            triple.command,
            triple.post,
            random.Random(aux_seed),
            samples=self.samples,
        )
        naive = naive_sampled_check_triple(
            triple.pre,
            triple.command,
            triple.post,
            self.universe,
            random.Random(aux_seed),
            samples=self.samples,
        )
        if engine.valid != naive.valid or engine.witness_pre != naive.witness_pre:
            return "sampled check diverged: engine %r vs naive %r" % (engine, naive)
        if not engine.valid:
            if self._oracle(triple, oracle).valid:
                return (
                    "sampled search refuted a triple the exhaustive oracle "
                    "validates (witness %r)" % (engine.witness_pre,)
                )
        return None

    def syntactic_disagreement(self, triple, oracle=None):
        """Fig. 3 wp verdict vs the oracle, on the supported fragment."""
        if not is_loop_free(triple.command):
            return None
        if not isinstance(triple.post, SynAssertion):
            return None
        task = self.session.task(triple.pre, triple.command, triple.post)
        backend = self.session.backends[0]
        if not backend.supports(task):
            return None
        outcome = backend.attempt(task, self.session)
        if outcome.verdict is None:
            return None
        oracle = self._oracle(triple, oracle)
        if outcome.verdict != oracle.valid:
            return "syntactic wp %s but the oracle says %s" % (
                "proved the triple" if outcome.verdict else "refuted the triple",
                _verdict(oracle.valid),
            )
        return None

    def chain_disagreement(self, triple, oracle=None):
        """The full default backend chain vs the oracle."""
        result = self.session.verify(
            triple.pre, triple.command, triple.post, invariant=triple.invariant
        )
        if result.verdict is None:
            return None
        oracle = self._oracle(triple, oracle)
        if result.verdict != oracle.valid:
            return "backend chain decided %s via %s but the oracle says %s" % (
                _verdict(result.verdict),
                result.method,
                _verdict(oracle.valid),
            )
        return None

    def symbolic_disagreement(self, triple, oracle=None):
        """The one-SAT-call symbolic backend vs the enumerating engine.

        Three obligations: a decided verdict matches the oracle; a
        refutation's witness is independently valid (pre-set satisfies
        the precondition, concrete ``sem`` reproduces the carried
        post-set, post-set violates the postcondition — the SAT model's
        set is *not* required to equal the engine's size-ordered first
        witness); and an undecided outcome records a reason (a silent
        fallthrough is a conformance bug in its own right).
        """
        task = self.session.task(triple.pre, triple.command, triple.post)
        outcome = self._symbolic.attempt(task, self.session)
        if outcome.verdict is None:
            if not getattr(outcome, "reason", ""):
                return "symbolic backend undecided without a recorded reason"
            return None
        oracle = self._oracle(triple, oracle)
        if outcome.verdict != oracle.valid:
            return "symbolic backend decided %s but the oracle says %s" % (
                _verdict(outcome.verdict),
                _verdict(oracle.valid),
            )
        if not outcome.verdict:
            witness = outcome.witness
            domain = self.universe.domain
            if witness is None:
                return "symbolic refutation carried no witness"
            if not triple.pre.holds(witness.pre_set, domain):
                return (
                    "symbolic witness pre-set does not satisfy the "
                    "precondition: %r" % (witness.pre_set,)
                )
            concrete = self.session.engine.sem(triple.command, witness.pre_set)
            if concrete != witness.post_set:
                return (
                    "symbolic witness post-set is not sem(C, S): carried %r, "
                    "concrete %r" % (witness.post_set, concrete)
                )
            if triple.post.holds(witness.post_set, domain):
                return (
                    "symbolic witness post-set satisfies the postcondition "
                    "(not a refutation): %r" % (witness.post_set,)
                )
        return None

    def hl_disagreement(self, triple, aux_seed):
        """Prop. 2 on the trial's command with derived HL judgments."""
        rng = random.Random(aux_seed ^ 0x481)
        pre_states = frozenset(
            phi for phi in self.universe.ext_states() if rng.random() < 0.5
        )
        post_states = frozenset(
            phi for phi in self.universe.ext_states() if rng.random() < 0.5
        )
        hl, embedded = check_prop2(
            lambda phi: phi in pre_states,
            triple.command,
            lambda phi: phi in post_states,
            self.universe,
        )
        if hl != embedded:
            return (
                "HL validity (%s) != embedded hyper-triple validity (%s) for "
                "P=%r Q=%r" % (_verdict(hl), _verdict(embedded), pre_states, post_states)
            )
        return None

    def il_disagreement(self, triple, aux_seed):
        """Prop. 6 on the trial's command with derived IL judgments."""
        rng = random.Random(aux_seed ^ 0x1337)
        pre_set = frozenset(
            phi for phi in self.universe.ext_states() if rng.random() < 0.5
        )
        post_set = frozenset(
            phi for phi in self.universe.ext_states() if rng.random() < 0.35
        )
        il, embedded = check_prop6(pre_set, triple.command, post_set, self.universe)
        if il != embedded:
            return "IL validity (%s) != embedded hyper-triple validity (%s) for " \
                "pre=%r post=%r" % (_verdict(il), _verdict(embedded), pre_set, post_set)
        return None

    def _result_store(self):
        if self._store is None:
            import tempfile

            from ..serve.store import ResultStore

            self._store_dir = tempfile.TemporaryDirectory(
                prefix="repro-fuzz-store-"
            )
            self._store = ResultStore(self._store_dir.name)
        return self._store

    def store_disagreement(self, triple, oracle=None):
        """A result-store round trip must be indistinguishable from inline.

        Runs the session's backend chain once, writes the result document
        to a scratch :class:`~repro.serve.store.ResultStore` under its
        content key, reads it back, and requires the decoded object to
        *equal* the inline result — this is the conformance guard behind
        the daemon's claim that a store hit is the same answer as the
        verification it skipped.
        """
        from ..codec import from_wire, to_wire
        from ..serve.protocol import task_key

        task = self.session.task(
            triple.pre, triple.command, triple.post, invariant=triple.invariant
        )
        result = self.session._run_task(task, None, {})
        document = to_wire(task)
        context = {"lo": self.config.lo, "hi": self.config.hi}
        key = task_key(document, context)
        if task_key(to_wire(task), dict(context)) != key:
            return "task content key is unstable across re-encodings"
        store = self._result_store()
        store.put(key, to_wire(result), task_document=document)
        record = store.get(key)
        if record is None:
            return (
                "freshly stored result read back as a miss (key %s…)"
                % key[:12]
            )
        decoded = from_wire(record["result"])
        if decoded != result:
            return "store round trip changed the result: %r became %r" % (
                result,
                decoded,
            )
        return None

    def _warm_session(self):
        if self._warm is None:
            self._warm = Session(
                self.config.pvars, lo=self.config.lo, hi=self.config.hi
            )
        return self._warm

    def incremental_disagreement(self, triple, aux_seed):
        """Reverify-after-edit must equal a cold run of the edited suite.

        Builds a two-task suite (the trial's triple plus a generated
        sibling sharing its pre/post), verifies it in the long-lived
        warm session, applies a random edit script (replace one task's
        command with a freshly generated one), and re-verifies with
        ``changed=`` declaring the pre-edit command.  The incremental
        report's results must encode to the same wire documents —
        elapsed floats zeroed — as a cold ``verify_many`` of the edited
        suite in a brand-new session.
        """
        from dataclasses import replace as _replace

        from ..codec import to_wire
        from ..gen.programs import gen_command

        rng = random.Random(aux_seed ^ 0xD1FF)
        warm = self._warm_session()
        sibling = gen_command(rng, self.config)
        suite = [
            warm.task(
                triple.pre, triple.command, triple.post, invariant=triple.invariant
            ),
            warm.task(triple.pre, sibling, triple.post),
        ]
        warm.verify_many(suite)
        victim = rng.randrange(len(suite))
        old = suite[victim]
        edited = list(suite)
        edited[victim] = _replace(old, command=gen_command(rng, self.config))
        incremental = warm.reverify(edited, changed=[old.command])
        cold = Session(
            self.config.pvars, lo=self.config.lo, hi=self.config.hi
        ).verify_many(edited)
        warm_docs = [_zero_elapsed(to_wire(r)) for r in incremental.results]
        cold_docs = [_zero_elapsed(to_wire(r)) for r in cold.results]
        if warm_docs != cold_docs:
            mismatched = [
                i for i, (w, c) in enumerate(zip(warm_docs, cold_docs)) if w != c
            ]
            return (
                "incremental reverify diverged from a cold run after editing "
                "task %d (mismatched tasks: %s; %d fingerprint hits, %d cone "
                "invalidations)"
                % (
                    victim,
                    mismatched,
                    incremental.counters["fingerprint_hits"],
                    incremental.counters["cone_invalidations"],
                )
            )
        return None

    # -- the per-trial pass ----------------------------------------------
    def check_trial(self, trial):
        """Run every applicable check → a :class:`TrialOutcome`."""
        triple = trial.triple
        aux_seed = trial_rng(trial.seed ^ _AUX_SALT, trial.index).getrandbits(32)
        # one exhaustive enumeration for the whole battery; the shrinker's
        # candidate triples recompute their own (see the checks' ``oracle``
        # parameter)
        oracle = self.session.engine.check(triple.pre, triple.command, triple.post)
        ran = []
        disagreements = []

        def run(kind, check, shrink):
            if not self.check_enabled(kind):
                return
            ran.append(kind)
            detail = check(triple, oracle)
            if detail is not None:
                disagreements.append(
                    Disagreement(
                        kind,
                        detail,
                        trial.seed,
                        trial.index,
                        shrink(triple, lambda t: check(t, None) is not None),
                    )
                )

        def shrink_cmd_only(t, fails):
            smaller = shrink_command(
                t.command,
                lambda c: fails(Triple(t.pre, c, t.post, t.invariant)),
            )
            return Triple(t.pre, smaller, t.post, t.invariant)

        run("engine-vs-naive", self.oracle_disagreement, shrink_triple)
        run(
            "terminating-engine-vs-naive",
            lambda t, _: self.terminating_disagreement(t),
            shrink_triple,
        )
        run(
            "sampled-engine-vs-naive",
            lambda t, o: self.sampled_disagreement(t, aux_seed, o),
            shrink_triple,
        )
        run("syntactic-vs-oracle", self.syntactic_disagreement, shrink_triple)
        run("chain-vs-oracle", self.chain_disagreement, shrink_triple)
        run("symbolic-vs-engine", self.symbolic_disagreement, shrink_triple)
        if self.embeddings:
            # embedding judgments derive their own pre/post sets from the
            # aux seed; only the command participates, so only it shrinks
            run(
                "hl-embedding",
                lambda t, _: self.hl_disagreement(t, aux_seed),
                shrink_cmd_only,
            )
            run(
                "il-embedding",
                lambda t, _: self.il_disagreement(t, aux_seed),
                shrink_cmd_only,
            )
        run("store-vs-inline", self.store_disagreement, shrink_triple)
        run(
            "incremental-vs-cold",
            lambda t, _: self.incremental_disagreement(t, aux_seed),
            shrink_triple,
        )

        return TrialOutcome(trial, oracle.valid, tuple(ran), tuple(disagreements))
