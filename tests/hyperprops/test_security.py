"""Sects. 2.2–2.3: NI and GNI on the paper's programs C1–C4.

Each check is performed twice — by the trace-based definitional check and
by the hyper-triple — and the verdicts must agree with the paper:

- C1 satisfies NI;
- C2 violates NI (and the violation is provable);
- C3 satisfies GNI but not NI;
- C4 violates GNI (and the violation is provable).
"""

from repro.checker import Universe, check_triple
from repro.hyperprops import (
    satisfies_gni_direct,
    satisfies_gni_triple,
    satisfies_ni_direct,
    satisfies_ni_triple,
    violates_gni_triple,
    violates_ni_triple,
)
from repro.values import IntRange

from tests.paper_programs import c1, c2, c3, c3_additive, c4

UNI = Universe(["h", "l"], IntRange(0, 1))
UNI_Y = Universe(["h", "l", "y"], IntRange(0, 1))


class TestC1SatisfiesNI:
    def test_direct(self):
        assert satisfies_ni_direct(c1(), UNI, "l")

    def test_triple(self):
        assert satisfies_ni_triple(c1(), UNI, "l")

    def test_no_violation_provable(self):
        assert not violates_ni_triple(c1(), UNI, "l", "h")


class TestC2ViolatesNI:
    def test_direct(self):
        assert not satisfies_ni_direct(c2(), UNI, "l")

    def test_triple(self):
        assert not satisfies_ni_triple(c2(), UNI, "l")

    def test_violation_provable(self):
        """The Sect. 2.2 disproof: {low(l) ∧ ∃ differing highs} C2
        {∃⟨φ1'⟩,⟨φ2'⟩. φ1'(l) ≠ φ2'(l)}."""
        assert violates_ni_triple(c2(), UNI, "l", "h")


class TestC3SatisfiesGNI:
    def test_gni_direct(self):
        assert satisfies_gni_direct(c3(), UNI_Y, "l", "h")

    def test_gni_triple(self):
        assert satisfies_gni_triple(c3(), UNI_Y, "l", "h")

    def test_but_not_ni(self):
        """Sect. 2.3: the non-determinism of the pad breaks NI."""
        assert not satisfies_ni_triple(c3(), UNI_Y, "l")

    def test_no_gni_violation_provable(self):
        assert not violates_gni_triple(c3(), UNI_Y, "l", "h")


class TestC4ViolatesGNI:
    def _universe(self):
        # bound 1 on a 0..2 domain: h=2 forces l >= 2... shrunken story:
        # y <= 1 while h ranges to 2 — the pad is too small.
        return Universe(["h", "l", "y"], IntRange(0, 2))

    def test_gni_direct_fails(self):
        uni = self._universe()
        assert not satisfies_gni_direct(c4(bound=1), uni, "l", "h")

    def test_gni_triple_fails(self):
        uni = self._universe()
        assert not satisfies_gni_triple(c4(bound=1), uni, "l", "h", max_size=3)

    def test_violation_provable(self):
        """The Fig. 4 result as a semantic triple check."""
        uni = self._universe()
        assert violates_gni_triple(c4(bound=1), uni, "l", "h", max_size=4)


class TestAdditivePadBoundary:
    def test_additive_pad_needs_unbounded_domain(self):
        """C3's literal `l := h + y` is GNI only because the paper's pad
        is *unbounded*; on a finite domain the sums h + y of different
        secrets cover shifted ranges, so GNI fails — exactly the C4
        phenomenon.  This documents the xor substitution in
        tests.paper_programs.c3 (xor keeps any domain {0..2^k-1} closed,
        restoring the paper's "any secret can yield any output")."""
        uni = Universe(["h", "l", "y"], IntRange(0, 1))
        assert not satisfies_gni_direct(c3_additive(), uni, "l", "h")
        from tests.paper_programs import c3

        assert satisfies_gni_direct(c3(), uni, "l", "h")


class TestDirectVsTripleAgreement:
    def test_agreement_across_programs(self):
        from repro.lang import parse_command

        programs = [
            "l := 0",
            "l := h",
            "l := h xor l",
            "y := nonDet(); l := h xor y",
            "if (h > 0) { l := 1 } else { l := 0 }",
        ]
        for text in programs:
            cmd = parse_command(text)
            assert satisfies_ni_direct(cmd, UNI_Y, "l") == satisfies_ni_triple(
                cmd, UNI_Y, "l"
            ), text
            assert satisfies_gni_direct(cmd, UNI_Y, "l", "h") == satisfies_gni_triple(
                cmd, UNI_Y, "l", "h"
            ), text
