"""The hyper-assertion grounding: SAT verdicts must equal brute force."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assertions.entail import entails
from repro.assertions.semantic import (
    TRUE_H,
    AndAssertion,
    NotAssertion,
    OrAssertion,
)
from repro.assertions.sugar import box, emp_s, gni, low, not_emp_s
from repro.assertions.syntax import (
    HLit,
    HVar,
    SAnd,
    SBool,
    SCmp,
    SExistsState,
    SExistsVal,
    SForallState,
    SForallVal,
    SOr,
    pv,
)
from repro.errors import EvaluationError
from repro.gen import GenConfig
from repro.gen.assertions import gen_assertion
from repro.lang.expr import V
from repro.checker import Universe
from repro.solver import encode
from repro.solver.encode import (
    Unsupported,
    entails_sat,
    entailment_model,
    ground_assertion,
    satisfiable_sat,
)
from repro.solver.formula import FFalse, FTrue, f_or, fand, fnot, fvar
from repro.values import IntRange

from tests.strategies import hyper_assertions

UNI = Universe(["x", "y"], IntRange(0, 2))
STATES = UNI.ext_states()
D = UNI.domain


class TestGrounding:
    def test_box_grounds_to_implications(self):
        f = ground_assertion(box(V("x").eq(0)), STATES, D)
        # satisfiable (the empty set) but not valid
        from repro.solver.sat import solve_formula

        assert solve_formula(f) is not None

    def test_unsupported_semantic(self):
        with pytest.raises(Unsupported):
            ground_assertion(TRUE_H, STATES, D)

    def test_combinator_wrappers_ground(self):
        f = ground_assertion(low("x") & box(V("y").eq(0)), STATES, D)
        assert f is not None

    def test_negation_wrapper_grounds(self):
        from repro.assertions.semantic import NotAssertion

        f = ground_assertion(NotAssertion(emp_s), STATES, D)
        from repro.solver.sat import solve_formula

        assert solve_formula(f) is not None


class TestEntailmentAgreement:
    @given(hyper_assertions(max_depth=2), hyper_assertions(max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_sat_equals_brute(self, pre, post):
        small = Universe(["x", "y"], IntRange(0, 1))
        states = small.ext_states()
        assert entails_sat(pre, post, states, small.domain) == entails(
            pre, post, states, small.domain
        )

    def test_known_entailments(self):
        assert entails_sat(emp_s, low("x"), STATES, D)
        assert entails_sat(box(V("x").eq(1)), low("x"), STATES, D)
        assert not entails_sat(not_emp_s, low("x"), STATES, D)

    def test_model_is_real_counterexample(self):
        model = entailment_model(not_emp_s, low("x"), STATES, D)
        assert model is not None
        assert not_emp_s.holds(model, D)
        assert not low("x").holds(model, D)

    def test_model_none_when_entailed(self):
        assert entailment_model(emp_s, low("x"), STATES, D) is None

    def test_satisfiable_sat(self):
        assert satisfiable_sat(low("x"), STATES, D)
        assert not satisfiable_sat(emp_s & not_emp_s, STATES, D)


class TestScaling:
    def test_larger_universe_entailment(self):
        """27-state universe: 2^27 subsets — brute force is hopeless, the
        SAT encoding answers in milliseconds."""
        big = Universe(["x", "y", "z"], IntRange(0, 2))
        states = big.ext_states()
        assert len(states) == 27
        assert entails_sat(
            box(V("x").eq(0)) & box(V("y").eq(1)),
            low("x") & low("y"),
            states,
            big.domain,
        )
        assert not entails_sat(low("x"), low("y"), states, big.domain)


def reference_ground(node, universe, domain, sigma=None, delta=None):
    """Unmemoized grounding straight from the definitions: every binding
    of every quantifier grounds its body afresh, environments are copied
    per instantiation and comparisons run through the interpreter.  The
    projection-memoized grounder must return exactly this formula."""
    sigma = dict(sigma or {})
    delta = dict(delta or {})

    def go(node, sigma, delta):
        if isinstance(node, AndAssertion):
            return fand(*(go(p, sigma, delta) for p in node.parts))
        if isinstance(node, OrAssertion):
            return f_or(*(go(p, sigma, delta) for p in node.parts))
        if isinstance(node, NotAssertion):
            return fnot(go(node.operand, sigma, delta))
        if isinstance(node, SBool):
            return FTrue() if node.value else FFalse()
        if isinstance(node, SCmp):
            held = node.eval(frozenset(), sigma, delta, domain)
            return FTrue() if held else FFalse()
        if isinstance(node, SAnd):
            left = go(node.left, sigma, delta)
            if isinstance(left, FFalse):
                return left
            return fand(left, go(node.right, sigma, delta))
        if isinstance(node, SOr):
            left = go(node.left, sigma, delta)
            if isinstance(left, FTrue):
                return left
            return f_or(left, go(node.right, sigma, delta))
        if isinstance(node, (SForallVal, SExistsVal)):
            universal = isinstance(node, SForallVal)
            absorbing = FFalse if universal else FTrue
            parts = []
            for v in domain:
                part = go(node.body, sigma, dict(delta, **{node.var: v}))
                if isinstance(part, absorbing):
                    parts = [part]
                    break
                parts.append(part)
            return fand(*parts) if universal else f_or(*parts)
        if isinstance(node, (SForallState, SExistsState)):
            parts = []
            for u in universe:
                member = fvar(("member", u))
                body = go(node.body, dict(sigma, **{node.state: u}), delta)
                if isinstance(node, SForallState):
                    parts.append(f_or(fnot(member), body))
                else:
                    parts.append(fand(member, body))
            return fand(*parts) if isinstance(node, SForallState) else f_or(*parts)
        raise Unsupported("cannot ground %r" % (node,))

    return go(node, sigma, delta)


#: three state binders and two value binders over a 9-state universe:
#: deep enough for quantifier bodies that read only part of the bindings
MEMO_CONFIG = GenConfig(
    pvars=("x", "y"), lo=0, hi=2, state_names=("p", "q", "r"), max_assertion_depth=5
)
MEMO_UNI = Universe(["x", "y"], IntRange(0, 2))


class TestProjectionMemo:
    @given(st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_memo_is_exact(self, seed):
        assertion = gen_assertion(random.Random(seed), MEMO_CONFIG)
        states = MEMO_UNI.ext_states()
        grounded = ground_assertion(assertion, states, MEMO_UNI.domain)
        expected = reference_ground(assertion, states, MEMO_UNI.domain)
        assert grounded == expected
        assert repr(grounded) == repr(expected)

    def test_open_assertion_reads_the_supplied_environment(self):
        states = MEMO_UNI.ext_states()
        open_body = SExistsState(
            "q", SAnd(SCmp("==", pv("q", "x"), pv("p", "x")), SCmp("<", HVar("v"), pv("q", "y")))
        )
        for phi in states[:4]:
            for v in MEMO_UNI.domain:
                sigma, delta = {"p": phi}, {"v": v}
                assert ground_assertion(
                    open_body, states, MEMO_UNI.domain, sigma, delta
                ) == reference_ground(open_body, states, MEMO_UNI.domain, sigma, delta)

    def test_unbound_reads_key_as_missing(self):
        """The inner ``∀⟨r⟩`` is memoized with an unbound state or a
        missing variable in its key: reading it still raises, and a
        body that never reads it (short-circuit) grounds exactly."""
        states = MEMO_UNI.ext_states()

        def nested(body):
            return SForallState("p", SForallState("r", body))

        with pytest.raises(EvaluationError):
            ground_assertion(
                nested(SCmp("==", pv("r", "x"), pv("q", "x"))), states, MEMO_UNI.domain
            )
        with pytest.raises(KeyError):
            ground_assertion(
                nested(SCmp("==", pv("p", "nope"), pv("r", "x"))), states, MEMO_UNI.domain
            )
        unread = nested(
            SAnd(SCmp("==", pv("r", "x"), HLit(5)), SCmp("==", pv("p", "nope"), HLit(0)))
        )
        assert ground_assertion(unread, states, MEMO_UNI.domain) == reference_ground(
            unread, states, MEMO_UNI.domain
        )

    def test_gni_witness_body_grounds_once_per_projection(self, monkeypatch):
        """On the 8-state h,l,y universe ``∃⟨φ⟩`` reads only ``φ1(h)`` and
        ``φ2(l)``: 4 distinct projections of the 64 outer bindings, so its
        body is grounded for 4 × 8 witness candidates, not 64 × 8."""
        uni = Universe(["h", "l", "y"], IntRange(0, 1))
        states = uni.ext_states()
        assert len(states) == 8
        post = gni("h", "l")
        witness_body = post.body.body.body
        calls = []
        original = encode._Grounder.ground

        def counting(self, node, sigma, delta):
            if node is witness_body:
                calls.append(node)
            return original(self, node, sigma, delta)

        monkeypatch.setattr(encode._Grounder, "ground", counting)
        grounded = ground_assertion(post, states, uni.domain)
        assert len(calls) <= 4 * len(states)
        assert grounded == reference_ground(post, states, uni.domain)
