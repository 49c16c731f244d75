"""Cross-module integration: the meta-theorems must cohere.

For any triple over a finite universe, four independent code paths must
agree on its status:

1. the exhaustive oracle (Def. 5),
2. the Thm. 2 completeness construction (provable ⟺ valid),
3. the Thm. 4 hyperproperty reading (C ∈ ⟦{P}C{Q}⟧ ⟺ valid),
4. the Thm. 5 disproof machinery (disprovable ⟺ invalid).

Plus end-to-end flows through the concrete syntax and the Session API.
"""

from hypothesis import given, settings

from repro import Session
from repro.assertions import (
    TRUE_H,
    box,
    exists_s,
    low,
    not_emp_s,
    parse_assertion,
    pv,
)
from repro.checker import check_triple, small_universe
from repro.errors import ProofError
from repro.hyperprops import semantics_of, triple_to_hyperproperty
from repro.lang import parse_command, pretty
from repro.lang.expr import V
from repro.logic import disprove_triple, prove_valid_triple

from tests.strategies import commands

UNI = small_universe(["x", "y"], 0, 1)

TRIPLES = [
    (TRUE_H, box(V("x").eq(0))),
    (not_emp_s, exists_s("p", pv("p", "x").eq(1))),
    (low("x"), low("x")),
    (box(V("x").eq(1)), not_emp_s),
]


class TestMetaTheoremCoherence:
    @given(commands(max_depth=2))
    @settings(max_examples=10, deadline=None)
    def test_four_way_agreement(self, command):
        for pre, post in TRIPLES:
            valid = check_triple(pre, command, post, UNI).valid

            # Thm. 2: provable ⟺ valid
            try:
                proof = prove_valid_triple(pre, command, post, UNI)
                provable = True
                assert check_triple(proof.pre, proof.command, proof.post, UNI).valid
            except ProofError:
                provable = False
            assert provable == valid

            # Thm. 4: hyperproperty membership ⟺ valid
            H = triple_to_hyperproperty(pre, post, UNI)
            assert H.contains(semantics_of(command, UNI)) == valid

            # Thm. 5: disprovable ⟺ invalid
            disproof = disprove_triple(pre, command, post, UNI)
            assert (disproof is not None) == (not valid)

    @given(commands(max_depth=2))
    @settings(max_examples=10, deadline=None)
    def test_parser_printer_preserve_validity(self, command):
        """Round-tripping the program through concrete syntax cannot
        change any triple's status."""
        reparsed = parse_command(pretty(command))
        for pre, post in TRIPLES:
            assert (
                check_triple(pre, command, post, UNI).valid
                == check_triple(pre, reparsed, post, UNI).valid
            )


class TestEndToEnd:
    def test_full_security_story(self):
        """Parse → verify GNI → disprove NI → rebuild the disproof as a
        checked derivation, all through the public facade."""
        v = Session(["h", "l", "y"], 0, 1)
        pad = "y := nonDet(); l := h xor y"
        # GNI verified
        assert v.verify(
            "forall <a>, <b>. a(l) == b(l)",
            pad,
            "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)",
        )
        # NI fails (the pad is non-deterministic)
        ni = "forall <a>, <b>. a(l) == b(l)"
        result = v.verify(ni, pad, ni)
        assert not result
        # and the failure is a first-class disproof
        disproof = v.disprove(ni, pad, ni)
        assert disproof is not None
        assert disproof.strengthened_pre.holds(disproof.witness, v.universe.domain)

    def test_concrete_syntax_matches_builders(self):
        parsed = parse_assertion("forall <φ1>, <φ2>. φ1(x) == φ2(x)")
        assert parsed == low("x")

    def test_proof_objects_survive_composition(self):
        """Build a three-stage proof (assign; havoc; assume) through the
        outline engine and check every intermediate node's conclusion."""
        from repro.assertions import EntailmentOracle
        from repro.logic import backward_proof

        uni = small_universe(["x", "y"], 0, 1)
        post = exists_s("p", pv("p", "y").eq(1))
        command = parse_command("x := 1; y := nonDet(); assume y >= x")
        proof = backward_proof(command, post)

        def walk(node):
            assert check_triple(node.pre, node.command, node.post, uni).valid
            for premise in node.premises:
                walk(premise)

        walk(proof)

    def test_sat_and_brute_oracles_interchangeable(self):
        """A proof built with the SAT oracle re-checks under brute force."""
        from repro.assertions import EntailmentOracle
        from repro.logic import verify_straightline

        uni = small_universe(["x", "y"], 0, 1)
        sat = EntailmentOracle(uni.ext_states(), uni.domain, method="sat")
        proof = verify_straightline(
            box(V("x").eq(0)),
            parse_command("y := x"),
            box(V("y").eq(0)),
            sat,
        )
        assert check_triple(proof.pre, proof.command, proof.post, uni).valid
        assert not proof.all_assumptions()
