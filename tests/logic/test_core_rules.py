"""The core rules (Fig. 2): soundness via the oracle, misapplication
errors, and the paper's Sect. 3.3 / Example 1 phenomena."""

import pytest
from hypothesis import given, settings

from repro.assertions import (
    EntailmentOracle,
    EqualsSet,
    OTimes,
    box,
    equals_set,
    low,
    not_emp_s,
)
from repro.checker import check_triple, small_universe
from repro.errors import EntailmentError, ProofError
from repro.lang import Assign, Choice, Skip, parse_command
from repro.lang.expr import V
from repro.logic import (
    ProofNode,
    Triple,
    rule_assign,
    rule_assume,
    rule_choice,
    rule_cons,
    rule_exist,
    rule_havoc,
    rule_iter,
    rule_seq,
    rule_skip,
)
from repro.semantics.extended import sem
from repro.semantics.state import ExtState, State

from tests.conftest import make_oracle
from tests.strategies import hyper_assertions


def check_conclusion(proof, universe):
    """The library-wide soundness test: a checked proof's conclusion must
    be valid over the universe (Thm. 1)."""
    result = check_triple(proof.pre, proof.command, proof.post, universe)
    assert result.valid, "unsound conclusion for rule %s" % proof.rule
    return proof


class TestAtomicRules:
    @given(hyper_assertions(max_depth=2))
    @settings(max_examples=30, deadline=None)
    def test_skip_sound(self, post):
        uni = small_universe(["x", "y"], 0, 1)
        check_conclusion(rule_skip(post), uni)

    @given(hyper_assertions(max_depth=2))
    @settings(max_examples=30, deadline=None)
    def test_assign_sound(self, post):
        uni = small_universe(["x", "y"], 0, 1)
        check_conclusion(rule_assign(post, "x", V("y")), uni)

    @given(hyper_assertions(max_depth=2))
    @settings(max_examples=30, deadline=None)
    def test_havoc_sound(self, post):
        uni = small_universe(["x", "y"], 0, 1)
        check_conclusion(rule_havoc(post, "x"), uni)

    @given(hyper_assertions(max_depth=2))
    @settings(max_examples=30, deadline=None)
    def test_assume_sound(self, post):
        uni = small_universe(["x", "y"], 0, 1)
        check_conclusion(rule_assume(post, V("x").gt(0)), uni)

    def test_backward_precondition_is_weakest(self, uni_x2):
        """The core Assign precondition is exactly P∘image — both
        directions."""
        post = box(V("x").eq(1))
        proof = rule_assign(post, "x", V("x") + 1)
        phi0 = ExtState(State({}), State({"x": 0}))
        phi1 = ExtState(State({}), State({"x": 1}))
        assert proof.pre.holds({phi0}, uni_x2.domain)
        assert not proof.pre.holds({phi1}, uni_x2.domain)


class TestSeqConsExist:
    def test_seq_composes(self, uni_x2, oracle_x2):
        mid = box(V("x").eq(1))
        p2 = rule_assign(box(V("x").eq(2)), "x", V("x") + 1)
        p1 = rule_cons(mid, p2.pre, rule_skip(p2.pre), oracle_x2)
        # simpler: directly build two assigns sharing the post object
        inc2 = rule_assign(box(V("x").eq(2)), "x", V("x") + 1)
        inc1 = rule_assign(inc2.pre, "x", V("x") + 1)
        proof = rule_seq(inc1, inc2)
        check_conclusion(proof, uni_x2)

    def test_seq_rejects_mismatch(self):
        p1 = rule_skip(box(V("x").eq(0)))
        p2 = rule_skip(box(V("x").eq(1)))
        with pytest.raises(ProofError):
            rule_seq(p1, p2)

    def test_cons_checks_entailments(self, uni_x2, oracle_x2):
        p = rule_skip(low("x"))
        stronger_pre = box(V("x").eq(0))
        weaker_post = not_emp_s | low("x")
        out = rule_cons(stronger_pre, weaker_post, p, oracle_x2)
        check_conclusion(out, uni_x2)

    def test_cons_rejects_bad_entailment(self, oracle_x2):
        p = rule_skip(box(V("x").eq(0)))
        with pytest.raises(EntailmentError):
            rule_cons(not_emp_s, box(V("x").eq(0)), p, oracle_x2)

    def test_exist_combines(self, uni_x2):
        premises = {v: rule_skip(box(V("x").eq(v))) for v in (0, 1)}
        proof = rule_exist(premises)
        check_conclusion(proof, uni_x2)
        # the conclusion is {∃v. □(x=v)} skip {∃v. □(x=v)} — i.e. low(x)
        phi0 = ExtState(State({}), State({"x": 0}))
        phi1 = ExtState(State({}), State({"x": 1}))
        assert proof.pre.holds({phi0}, uni_x2.domain)
        assert not proof.pre.holds({phi0, phi1}, uni_x2.domain)

    def test_exist_rejects_empty(self):
        with pytest.raises(ProofError):
            rule_exist({})

    def test_exist_rejects_mixed_commands(self):
        with pytest.raises(ProofError):
            rule_exist({0: rule_skip(not_emp_s), 1: rule_assign(not_emp_s, "x", 0)})


class TestChoice:
    def test_choice_otimes(self, uni_x2):
        p1 = rule_assign(box(V("x").eq(0)), "x", 0)
        p2 = rule_cons(
            p1.pre,
            box(V("x").eq(1)),
            rule_assign(box(V("x").eq(1)), "x", 1),
            make_oracle(uni_x2),
        )
        proof = rule_choice(p1, p2)
        assert isinstance(proof.post, OTimes)
        check_conclusion(proof, uni_x2)

    def test_sect33_naive_choice_counterexample(self, uni_x2):
        """Sect. 3.3: with P = Q = isSingleton the naive shared-post
        Choice rule would be unsound — the oracle exhibits it."""
        from repro.assertions import singleton

        single = singleton()
        c1, c2 = Assign("x", 0), Assign("x", 1)
        # both premises hold:
        assert check_triple(single, c1, single, uni_x2).valid
        assert check_triple(single, c2, single, uni_x2).valid
        # the naive conclusion fails:
        assert not check_triple(single, Choice(c1, c2), single, uni_x2).valid
        # the ⊗ conclusion holds:
        assert check_triple(single, Choice(c1, c2), OTimes(single, single), uni_x2).valid


class TestExample1:
    """Example 1: Choice alone yields spurious disjuncts; Exist repairs it."""

    def setup_method(self):
        self.uni = small_universe(["x"], 0, 3)
        self.phi = [ExtState(State({}), State({"x": v})) for v in range(4)]
        self.p = [EqualsSet(frozenset((self.phi[v],))) for v in range(4)]
        self.cmd = Choice(Skip(), Assign("x", V("x") + 1))

    def test_choice_only_has_spurious_disjuncts(self):
        p0, p1, p2, p3 = self.p
        # the most precise Choice-only postcondition
        post = OTimes(p0 | p2, p1 | p3)
        # it admits the spurious set {φ0, φ3}
        spurious = frozenset((self.phi[0], self.phi[3]))
        assert post.holds(spurious, self.uni.domain)

    def test_exist_recovers_precision(self):
        p0, p1, p2, p3 = self.p
        oracle = make_oracle(self.uni)
        premises = {}
        for b, pin in ((True, 0), (False, 2)):
            pre = self.p[pin]
            skip_proof = rule_cons(pre, pre, rule_skip(pre), oracle)
            inc_post = self.p[pin + 1]
            inc_proof = rule_cons(
                pre, inc_post, rule_assign(inc_post, "x", V("x") + 1), oracle
            )
            premises[b] = rule_choice(skip_proof, inc_proof)
        proof = rule_exist(premises)
        # target: S = {φ0, φ1} ∨ S = {φ2, φ3}, no spurious disjuncts
        target_sets = [
            frozenset((self.phi[0], self.phi[1])),
            frozenset((self.phi[2], self.phi[3])),
        ]
        for s in target_sets:
            assert proof.post.holds(s, self.uni.domain)
        spurious = frozenset((self.phi[0], self.phi[3]))
        assert not proof.post.holds(spurious, self.uni.domain)
        final = rule_cons(
            p0 | p2,
            EqualsSet(target_sets[0]) | EqualsSet(target_sets[1]),
            proof,
            oracle,
        )
        check_conclusion(final, self.uni)


class TestIter:
    def test_iter_with_stabilizing_family(self, uni_x2):
        """x := max(x, 1) stabilizes after one iteration."""
        cmd = parse_command("x := max(x, 1)")
        uni = uni_x2
        phi0 = ExtState(State({}), State({"x": 0}))
        phi1 = ExtState(State({}), State({"x": 1}))
        layers = [frozenset((phi0,)), frozenset((phi1,))]
        pins = [EqualsSet(layers[0]), EqualsSet(layers[1])]

        def family(n):
            return pins[min(n, 1)]

        oracle = make_oracle(uni)
        proofs = []
        for n in range(2):
            post = family(n + 1)
            proofs.append(
                rule_cons(
                    family(n),
                    post,
                    rule_assign(post, "x", parse_command("x := max(x, 1)").expr),
                    oracle,
                )
            )
        proof = rule_iter(family, proofs, stable_from=1)
        check_conclusion(proof, uni)
        # conclusion postcondition: union of layers = {φ0, φ1}
        assert proof.post.holds(frozenset((phi0, phi1)), uni.domain)

    def test_iter_premise_count_checked(self):
        pin = EqualsSet(frozenset())
        with pytest.raises(ProofError):
            rule_iter(lambda n: pin, [rule_skip(pin)], stable_from=3)

    def test_iter_periodicity_checked(self):
        pins = [EqualsSet(frozenset()), not_emp_s]
        with pytest.raises(ProofError):
            # family does not stabilize where claimed
            rule_iter(
                lambda n: pins[n % 2],
                [rule_skip(pins[0])],
                stable_from=0,
            )


class TestProofNodes:
    def test_tree_rendering(self, uni_x2):
        p = rule_seq(rule_skip(not_emp_s), rule_skip(not_emp_s))
        text = p.tree()
        assert "Seq" in text and "Skip" in text

    def test_size_and_rules_used(self):
        p = rule_seq(rule_skip(not_emp_s), rule_skip(not_emp_s))
        assert p.size() == 3
        assert p.rules_used() == {"Seq": 1, "Skip": 2}

    def test_assumptions_bubble_up(self, uni_x2):
        from repro.assertions import AssumingOracle

        oracle = AssumingOracle()
        weak = not_emp_s
        strong, mid = weak & box(V("x").eq(0)), weak & low("x")
        cons = rule_cons(strong, weak, rule_skip(mid), oracle)
        assert len(cons.assumptions) == 2
        p = rule_seq(cons, rule_skip(weak))
        assert p.assumptions == ()
        assert p.all_assumptions() == cons.assumptions
        assert "Cons (precondition)" in p.all_assumptions()[0]
        assert "Cons (postcondition)" in p.all_assumptions()[1]

    def test_reflexive_entailment_is_neither_asked_nor_assumed(self, uni_x2):
        from repro.assertions import AssumingOracle

        oracle = AssumingOracle()
        p = rule_cons(not_emp_s, not_emp_s, rule_skip(not_emp_s), oracle)
        assert p.all_assumptions() == () and oracle.assumed == []
        asked = make_oracle(uni_x2)
        rule_cons(not_emp_s & low("x"), not_emp_s, rule_skip(not_emp_s), asked)
        assert asked.method_counts() == {"brute": 1}

    def test_triple_validation(self):
        with pytest.raises(ProofError):
            Triple("not an assertion", Skip(), not_emp_s)
        with pytest.raises(ProofError):
            Triple(not_emp_s, "not a command", not_emp_s)
