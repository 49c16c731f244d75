"""Property: the symbolic backend conforms to the enumerating engine.

On every groundable generated trial the one-SAT-call verdict must match
the exhaustive :class:`~repro.checker.engine.CheckerEngine`, and a
symbolic refutation must carry an *independently valid* witness — the
SAT model's set need not equal the engine's size-ordered first witness,
so validity is checked semantically, never by set comparison.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, SymbolicBackend
from repro.assertions.semantic import TRUE_H, SemAssertion
from repro.assertions.sugar import box, gni, low
from repro.gen.config import FUZZ_CONFIG
from repro.gen.triples import regenerate
from repro.lang.expr import V
from repro.symbolic import fragment_reasons, in_fragment

#: One session for the whole module — trials share the image cache, the
#: same economics the fuzz harness relies on.
SESSION = Session(FUZZ_CONFIG.pvars, lo=FUZZ_CONFIG.lo, hi=FUZZ_CONFIG.hi)
BACKEND = SymbolicBackend()


def assert_conforms(triple):
    """One trial: symbolic verdict + witness vs the exhaustive engine."""
    task = SESSION.task(triple.pre, triple.command, triple.post)
    outcome = BACKEND.attempt(task, SESSION)
    if outcome.verdict is None:
        assert outcome.reason, "undecided without a recorded reason"
        return outcome
    oracle = SESSION.engine.check(triple.pre, triple.command, triple.post)
    assert outcome.verdict == oracle.valid, (
        "symbolic %r vs oracle %r on\n%s"
        % (outcome.verdict, oracle.valid, triple.describe())
    )
    if not outcome.verdict:
        witness = outcome.witness
        domain = SESSION.universe.domain
        assert witness is not None, "refutation without a witness"
        assert triple.pre.holds(witness.pre_set, domain)
        assert SESSION.engine.sem(triple.command, witness.pre_set) == witness.post_set
        assert not triple.post.holds(witness.post_set, domain)
    return outcome


class TestConformance:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_symbolic_matches_engine_on_generated_trials(self, seed, index):
        assert_conforms(regenerate(seed, index, FUZZ_CONFIG).triple)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_loop_trials_conform(self, seed):
        """Loop commands work symbolically: the big-step fixpoint
        computes their images like any other command's."""
        trial = regenerate(seed, 0, FUZZ_CONFIG, straightline_bias=0.0, loop_bias=1.0)
        assert_conforms(trial.triple)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_groundable_trials_are_decided(self, seed, index):
        """On the fragment the backend never punts: every
        groundable generated trial gets a Proved or Refuted."""
        triple = regenerate(seed, index, FUZZ_CONFIG).triple
        if not (in_fragment(triple.pre) and in_fragment(triple.post)):
            return
        outcome = assert_conforms(triple)
        assert outcome.verdict is not None, (
            "groundable trial left undecided (%s):\n%s"
            % (getattr(outcome, "reason", ""), triple.describe())
        )


class TestHandPickedTriples:
    def test_refutes_leak_with_valid_witness(self):
        task = SESSION.task(low("x"), "x := nonDet()", low("x"))
        outcome = BACKEND.attempt(task, SESSION)
        assert outcome.verdict is False
        witness = outcome.witness
        assert witness is not None
        assert SESSION.engine.sem(task.command, witness.pre_set) == witness.post_set

    def test_proves_constant_assignment(self):
        task = SESSION.task(low("x"), "x := 0", low("x"))
        outcome = BACKEND.attempt(task, SESSION)
        assert outcome.verdict is True
        assert outcome.method == "sat-validity"

    def test_decides_while_loop(self):
        task = SESSION.task(
            "forall <a>. a(x) <= 1", "while (x > 0) { x := x - 1 }",
            "forall <a>. a(x) == 0",
        )
        outcome = BACKEND.attempt(task, SESSION)
        assert outcome.verdict is True


class TestFragmentReasons:
    def test_gni_is_in_fragment(self):
        """Alternating blocks ground exactly: GNI's ``∀∀∃`` has no reason."""
        assert fragment_reasons(gni("x", "y")) == ()

    def test_semantic_predicate_reason(self):
        opaque = SemAssertion(lambda s, d: True, label="opaque-test")
        reasons = fragment_reasons(opaque)
        assert any("opaque semantic predicate" in r for r in reasons)

    def test_true_h_is_out_of_fragment(self):
        reasons = fragment_reasons(TRUE_H)
        assert any("constant semantic predicate" in r for r in reasons)

    def test_groundable_assertions_have_no_reasons(self):
        assert in_fragment(low("x"))
        assert in_fragment(low("x") & box(V("y").eq(0)))

    def test_gni_task_is_decided(self):
        """``y := nonDet()`` over a low ``x`` satisfies GNI(y, x) — the
        havoc gives every ``y`` for every ``x``."""
        triple = (low("x"), "y := nonDet()", gni("y", "x"))
        outcome = BACKEND.attempt(SESSION.task(*triple), SESSION)
        assert outcome.verdict is SESSION.engine.check(
            triple[0], SESSION.parse_program(triple[1]), triple[2]
        ).valid
        assert outcome.method == "sat-validity"


class TestChainIntegration:
    def test_default_chain_contains_symbolic(self):
        names = [b.name for b in Session(["x"], lo=0, hi=1).backends]
        assert names == ["syntactic-wp", "loop", "symbolic", "exhaustive"]

    def test_capped_chain_has_no_symbolic_stage(self):
        """``max_set_size`` keeps the documented oracle(≤k) semantics:
        the symbolic stage would silently upgrade them to exact."""
        names = [b.name for b in Session(["x"], lo=0, hi=1, max_set_size=2).backends]
        assert "symbolic" not in names

    def test_out_of_fragment_falls_through_to_oracle(self):
        """A loop (no invariant) under an opaque precondition reaches the
        symbolic stage — which must punt with a reason — and still gets
        decided by the closing exhaustive oracle."""
        session = Session(["x", "y"], lo=0, hi=1)
        opaque = SemAssertion(lambda s: len(s) <= 2, label="small")
        result = session.verify(opaque, "while (y > 0) { y := y - 1 }", low("x"))
        assert result.verdict is False
        assert result.outcome.backend == "exhaustive"
        symbolic = [o for o in result.outcomes if o.backend == "symbolic"]
        assert symbolic and "opaque semantic predicate 'small'" in symbolic[0].reason

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_generated_trials_never_reach_the_exhaustive_backend(self, seed, index):
        """Generated trials are syntactic, so the symbolic stage decides
        whatever wp and the loop rules leave, alternating posts included."""
        triple = regenerate(seed, index, FUZZ_CONFIG).triple
        result = SESSION.verify(
            triple.pre, triple.command, triple.post, invariant=triple.invariant
        )
        assert result.verdict is not None
        assert result.outcome.backend != "exhaustive", triple.describe()

    def test_valid_gni_loop_on_sixteen_states_is_decided_by_sat(self):
        """A GNI-class loop over 16 states: one SAT query decides what
        the Def. 5 scan would need 2**16 candidate sets for."""
        gni_text = (
            "forall <a>. forall <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"
        )
        session = Session(["h", "l", "x", "y"], lo=0, hi=1)
        assert len(session.universe.ext_states()) == 16
        result = session.verify(gni_text, "while (x == 0) { x := 1 }", gni_text)
        assert result.verdict is True
        assert result.outcome.backend == "symbolic"
        assert result.method == "sat-validity"


class TestCodecRoundTrip:
    def test_symbolic_outcomes_round_trip(self):
        from repro.codec import from_wire

        for triple in (
            (low("x"), "x := 0", low("x")),
            (low("x"), "x := nonDet()", low("x")),
            (low("x"), "y := nonDet()", gni("y", "x")),
        ):
            task = SESSION.task(*triple)
            outcome = BACKEND.attempt(task, SESSION)
            decoded = from_wire(outcome.to_wire())
            assert decoded == outcome
