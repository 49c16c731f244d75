"""The push-button contract ``Session`` kept from the old facade.

One fresh session per triple, read through ``TaskResult``: the exact
method strings, the EntailmentError → counterexample path, the
capped-oracle and brute-fallback method strings, and
``disprove``/``entails`` on the session's cached oracle.
"""

from repro import Session
from repro.assertions.semantic import TRUE_H
from repro.assertions.sugar import low


class TestShimCompatibility:
    def test_gni_verified_via_syntactic_wp(self):
        v = Session(["h", "l", "y"], 0, 1)
        result = v.verify(
            "forall <a>, <b>. a(l) == b(l)",
            "y := nonDet(); l := h xor y",
            "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)",
        )
        assert result.verified
        assert result.proof is not None
        assert result.method == "syntactic-wp+sat"
        assert result.counterexample is None

    def test_entailment_error_path_yields_counterexample(self):
        # The closing wp entailment fails → the session must return a
        # refutation with an explained semantic counterexample.
        v = Session(["h", "l"], 0, 1)
        result = v.verify("true", "l := h", "forall <a>, <b>. a(l) == b(l)")
        assert not result.verified
        assert not result  # __bool__ protocol
        assert result.method == "syntactic-wp+sat"
        assert "initial set" in result.counterexample
        assert "sem(C, S)" in result.counterexample

    def test_loop_falls_back_to_oracle_method(self):
        # the semantic constant TRUE_H keeps the symbolic stage out (it
        # records a fragment reason), so the closing oracle's method
        # surfaces
        v = Session(["x"], 0, 2)
        result = v.verify(
            TRUE_H, "while (x > 0) { x := x - 1 }", "forall <a>. a(x) == 0"
        )
        assert result.verified
        assert result.method.startswith("oracle")
        assert result.proof is None

    def test_loop_decided_symbolically_reports_sat_validity(self):
        v = Session(["x"], 0, 2)
        result = v.verify(
            "exists <a>. true",
            "while (x > 0) { x := x - 1 }",
            "forall <a>. a(x) == 0",
        )
        assert result.verified
        assert result.method == "sat-validity"
        assert result.proof is None

    def test_capped_oracle_method_string(self):
        v = Session(["x"], 0, 2, max_set_size=2)
        result = v.verify(
            "exists <a>. true",
            "while (x > 0) { x := x - 1 }",
            "forall <a>. a(x) == 0",
        )
        assert result.verified
        assert result.method == "oracle(≤2)"

    def test_assertion_and_command_objects_accepted(self):
        v = Session(["x"], 0, 1)
        command = v.parse_program("x := 1 - x")
        assert v.verify(low("x"), command, low("x"))

    def test_disprove_both_directions(self):
        v = Session(["x"], 0, 1)
        disproof = v.disprove("true", "x := nonDet()", "forall <a>. a(x) == 0")
        assert disproof is not None
        assert len(disproof.witness) > 0
        assert v.disprove("true", "x := 0", "forall <a>. a(x) == 0") is None

    def test_entails_delegates_to_cached_oracle(self):
        v = Session(["x", "y"], 0, 1)
        assert v.entails("forall <a>. a(x) == 0", "forall <a>, <b>. a(x) == b(x)")
        assert not v.entails("exists <a>. true", "forall <a>. a(x) == 0")
        # Second identical query is a cache hit on the session oracle.
        before = v.cache_info()["entailment_hits"]
        v.entails("forall <a>. a(x) == 0", "forall <a>, <b>. a(x) == b(x)")
        assert v.cache_info()["entailment_hits"] == before + 1

    def test_brute_fallback_is_surfaced_in_method(self):
        # A semantic precondition is outside the SAT fragment: the oracle
        # must fall back to brute force AND report it, never claiming
        # "sat" for a query it could not ground.
        from repro.assertions.semantic import SemAssertion

        v = Session(["x"], 0, 1)
        pre = SemAssertion(lambda states: True, label="⊤(semantic)")
        result = v.verify(pre, "x := 0", "forall <a>. a(x) == 0")
        assert result.verified
        assert "brute" in result.method

    def test_universe_and_oracle_attributes_preserved(self):
        v = Session(["h", "l"], 0, 1, entailment="brute")
        assert v.universe.size() == 4
        assert v.oracle.method == "brute"
        assert v.max_set_size is None
