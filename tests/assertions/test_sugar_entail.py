"""Assertion sugar builders and entailment checking."""

import pytest

from repro.assertions import (
    AssumingOracle,
    EntailmentOracle,
    agree_on,
    box,
    diamond,
    differing_highs,
    emp_s,
    entails,
    equivalent,
    find_entailment_counterexample,
    gni,
    gni_violation,
    has_min,
    low,
    low_pred,
    mono,
    not_emp_s,
    satisfiable,
)
from repro.errors import EntailmentError
from repro.lang.expr import V
from repro.semantics.state import ExtState, State
from repro.values import IntRange

D = IntRange(0, 1)


def phi(h, l, t=None):
    log = {} if t is None else {"t": t}
    return ExtState(State(log), State({"h": h, "l": l}))


ALL = [phi(h, l) for h in (0, 1) for l in (0, 1)]


class TestSugar:
    def test_low(self):
        assert low("l").holds({phi(0, 1), phi(1, 1)}, D)
        assert not low("l").holds({phi(0, 0), phi(0, 1)}, D)
        assert low("l").holds(frozenset(), D)

    def test_low_pred(self):
        cond = V("l").gt(0)
        assert low_pred(cond).holds({phi(0, 1), phi(1, 1)}, D)
        assert not low_pred(cond).holds({phi(0, 0), phi(1, 1)}, D)

    def test_box_diamond(self):
        cond = V("h").eq(0)
        assert box(cond).holds({phi(0, 0), phi(0, 1)}, D)
        assert not box(cond).holds({phi(1, 0)}, D)
        assert diamond(cond).holds({phi(1, 0), phi(0, 1)}, D)
        assert not diamond(cond).holds({phi(1, 0)}, D)

    def test_emp_notemp(self):
        assert emp_s.holds(frozenset(), D)
        assert not emp_s.holds({phi(0, 0)}, D)
        assert not_emp_s.holds({phi(0, 0)}, D)

    def test_gni_and_violation_are_complements_here(self):
        s = {phi(0, 0), phi(1, 1)}
        assert gni("h", "l").holds(s, D) != gni_violation("h", "l").holds(s, D)

    def test_gni_satisfied_by_full_rectangle(self):
        s = {phi(h, l) for h in (0, 1) for l in (0, 1)}
        assert gni("h", "l").holds(s, D)

    def test_differing_highs(self):
        assert differing_highs("h").holds({phi(0, 0), phi(1, 0)}, D)
        assert not differing_highs("h").holds({phi(1, 0), phi(1, 1)}, D)

    def test_mono_uses_logical_tags(self):
        s = {phi(0, 1, t=1), phi(0, 0, t=2)}
        assert mono("t", "l").holds(s, D)
        s_bad = {phi(0, 0, t=1), phi(0, 1, t=2)}
        assert not mono("t", "l").holds(s_bad, D)

    def test_has_min(self):
        assert has_min("l").holds({phi(0, 0), phi(1, 1)}, D)
        assert not has_min("l").holds(frozenset(), D)

    def test_agree_on(self):
        assert agree_on(["h", "l"]).holds({phi(1, 0), phi(1, 0)}, D)
        assert not agree_on(["h", "l"]).holds({phi(1, 0), phi(0, 0)}, D)
        assert agree_on([]).holds({phi(0, 0), phi(1, 1)}, D)


class TestEntailment:
    def test_entails_positive(self):
        assert entails(emp_s, low("l"), ALL, D)
        assert entails(box(V("l").eq(0)), low("l"), ALL, D)

    def test_entails_negative_with_counterexample(self):
        assert not entails(not_emp_s, low("l"), ALL, D)
        cex = find_entailment_counterexample(not_emp_s, low("l"), ALL, D)
        assert cex is not None
        assert not_emp_s.holds(cex, D) and not low("l").holds(cex, D)

    def test_equivalent(self):
        a = box(V("l").eq(0)) & box(V("h").eq(0))
        b = box((V("l").eq(0)) & (V("h").eq(0)))
        assert equivalent(a, b, ALL, D)
        assert not equivalent(a, box(V("l").eq(0)), ALL, D)

    def test_satisfiable(self):
        assert satisfiable(low("l"), ALL, D)
        assert not satisfiable(emp_s & not_emp_s, ALL, D)

    def test_oracle_require_raises(self):
        oracle = EntailmentOracle(ALL, D)
        with pytest.raises(EntailmentError):
            oracle.require(not_emp_s, low("l"), "test")

    def test_require_error_names_both_assertions(self):
        from repro.assertions.parser import parse_assertion
        from repro.assertions.printer import pretty_assertion

        pre = parse_assertion("exists <a>. true")
        post = parse_assertion("forall <a>, <b>. a(l) == b(l)")
        oracle = EntailmentOracle(ALL, D, method="sat")
        with pytest.raises(EntailmentError) as info:
            oracle.require(pre, post, "test")
        message = str(info.value)
        assert pretty_assertion(pre) in message
        assert pretty_assertion(post) in message

    def test_sat_require_decodes_the_counterexample_from_the_model(
        self, monkeypatch
    ):
        import pickle
        import re

        from repro.assertions import entail
        from repro.assertions.parser import parse_assertion
        from repro.assertions.printer import pretty_assertion
        from repro.assertions.semantic import sem
        from repro.solver.encode import entailment_model

        def no_enumeration(*args, **kwargs):
            raise AssertionError("a sat oracle enumerated subsets")

        monkeypatch.setattr(entail, "iter_subsets", no_enumeration)
        pre = parse_assertion("exists <a>. true")
        post = parse_assertion("forall <a>, <b>. a(l) == b(l)")
        oracle = EntailmentOracle(ALL, D, method="sat")
        with pytest.raises(EntailmentError) as info:
            oracle.require(pre, post, "test")
        message = str(info.value)
        assert pretty_assertion(pre) in message
        assert pretty_assertion(post) in message
        found = re.search(r"counterexample: (-?\d+)-state set", message)
        size = int(found.group(1))
        cex = oracle.find_counterexample(pre, post)
        assert size == len(cex) >= 2
        assert cex == entailment_model(pre, post, oracle.universe, D)
        # the deferred text survives repr and pickling
        assert message in repr(info.value)
        assert str(pickle.loads(pickle.dumps(info.value))) == message
        assert pre.holds(cex, D) and not post.holds(cex, D)
        # brute oracles and ungroundable operands still enumerate
        with pytest.raises(AssertionError, match="enumerated"):
            EntailmentOracle(ALL, D).find_counterexample(pre, post)
        with pytest.raises(AssertionError, match="enumerated"):
            oracle.find_counterexample(sem(lambda states: True), post)

    def test_oracle_entails_bool(self):
        oracle = EntailmentOracle(ALL, D)
        assert oracle.entails(emp_s, low("l"))
        assert not oracle.entails(not_emp_s, low("l"))

    def test_assuming_oracle_records(self):
        oracle = AssumingOracle()
        assert oracle.require(not_emp_s, low("l"), "bogus")
        assert len(oracle.assumed) == 1

    def test_sat_method_agrees_with_brute(self):
        brute = EntailmentOracle(ALL, D, method="brute")
        sat = EntailmentOracle(ALL, D, method="sat")
        cases = [
            (box(V("l").eq(0)), low("l")),
            (not_emp_s, low("l")),
            (low("l") & low("h"), agree_on(["h", "l"])),
        ]
        for pre, post in cases:
            assert brute.entails(pre, post) == sat.entails(pre, post)

    def test_sat_method_falls_back_for_semantic(self):
        from repro.assertions.semantic import TRUE_H

        sat = EntailmentOracle(ALL, D, method="sat")
        # OTimes and friends are not groundable; oracle must still answer
        assert sat.entails(TRUE_H, TRUE_H)


class TestMethodTracking:
    """The oracle must report which method *actually* decided each query
    (a sat oracle silently degrades to brute on non-groundable operands)."""

    def test_sat_query_records_sat(self):
        sat = EntailmentOracle(ALL, D, method="sat")
        sat.entails(box(V("l").eq(0)), low("l"))
        assert sat.last_method == "sat"
        assert sat.used_since() == ("sat",)

    def test_fallback_records_brute_not_sat(self):
        from repro.assertions.semantic import TRUE_H

        sat = EntailmentOracle(ALL, D, method="sat")
        sat.entails(TRUE_H, TRUE_H)
        assert sat.last_method == "brute"
        assert sat.used_since() == ("brute",)

    def test_used_since_mark_and_order(self):
        from repro.assertions.semantic import TRUE_H

        sat = EntailmentOracle(ALL, D, method="sat")
        sat.entails(box(V("l").eq(0)), low("l"))
        mark = sat.used_mark()
        sat.entails(TRUE_H, TRUE_H)
        sat.entails(not_emp_s, low("l"))
        assert sat.used_since(mark) == ("brute", "sat")
        assert sat.used_since() == ("sat", "brute")

    def test_reset_used(self):
        brute = EntailmentOracle(ALL, D)
        brute.entails(emp_s, low("l"))
        brute.reset_used()
        assert brute.used_since() == ()
        assert brute.used_mark() == 0

    def test_assuming_oracle_records_assume(self):
        oracle = AssumingOracle()
        oracle.entails(not_emp_s, low("l"))
        assert oracle.last_method == "assume"

    def test_universe_sorted_once_and_reused(self):
        oracle = EntailmentOracle(ALL, D)
        assert oracle.universe == tuple(sorted(ALL, key=repr))
        cex = oracle.find_counterexample(not_emp_s, low("l"))
        assert cex is not None and not low("l").holds(cex, D)
        assert oracle.satisfiable(low("l"))
        assert not oracle.satisfiable(emp_s & not_emp_s)
