"""The core rules of Hyper Hoare Logic (Fig. 2).

These nine rules are sound and complete on their own (Thms. 1–2).  Each
function validates the premise shapes / side conditions and returns a
:class:`~repro.logic.judgment.ProofNode` for the conclusion.

The atomic rules (Assume, Assign, Havoc) work *backward*: given the
postcondition ``P`` they construct the semantically precise precondition
(set comprehensions of Fig. 2, realized by the derived assertion classes
of :mod:`repro.assertions.derived`).
"""

from ..assertions.derived import AssignPre, FilterPre, HavocPre
from ..assertions.semantic import ExistsValue, OTimes, OTimesFamily
from ..errors import ProofError
from ..lang.ast import Assign, Assume, Choice, Havoc, Iter, Seq, Skip
from ..lang.expr import as_bexpr, as_expr
from .judgment import (
    ProofNode,
    Triple,
    require,
    require_match,
    require_same_command,
)


def rule_skip(post):
    """Skip: ``⊢ {P} skip {P}``."""
    return ProofNode("Skip", Triple(post, Skip(), post, terminating=True))


def rule_seq(first, second):
    """Seq: from ``⊢{P} C1 {R}`` and ``⊢{R} C2 {Q}``, ``⊢{P} C1;C2 {Q}``."""
    require(isinstance(first, ProofNode), "Seq: first premise is not a proof")
    require(isinstance(second, ProofNode), "Seq: second premise is not a proof")
    require_match(first.post, second.pre, "Seq")
    triple = Triple(
        first.pre,
        Seq(first.command, second.command),
        second.post,
        terminating=first.triple.terminating and second.triple.terminating,
    )
    return ProofNode("Seq", triple, (first, second))


def rule_choice(left, right):
    """Choice: from ``⊢{P} C1 {Q1}`` and ``⊢{P} C2 {Q2}``,
    ``⊢{P} C1+C2 {Q1 ⊗ Q2}`` (Def. 6)."""
    require_match(left.pre, right.pre, "Choice")
    triple = Triple(
        left.pre,
        Choice(left.command, right.command),
        OTimes(left.post, right.post),
        terminating=left.triple.terminating and right.triple.terminating,
    )
    return ProofNode("Choice", triple, (left, right))


def rule_cons(new_pre, new_post, proof, oracle, context="Cons"):
    """Cons: weaken/strengthen via ``P |= P'`` and ``Q' |= Q``.

    Entailments are discharged by the ``oracle``; an ``AssumingOracle``
    records them as assumptions instead (reflected on the node).  An
    entailment between one assertion object and itself, ``P |= P``,
    holds for every ``P`` and is neither asked nor assumed.
    """
    before = len(oracle.assumed)
    if new_pre is not proof.pre:
        oracle.require(new_pre, proof.pre, context + " (precondition)")
    if proof.post is not new_post:
        oracle.require(proof.post, new_post, context + " (postcondition)")
    assumed = tuple(
        "%s: %s |= %s" % (ctx or context, p.describe(), q.describe())
        for p, q, ctx in oracle.assumed[before:]
    )
    triple = Triple(new_pre, proof.command, new_post, proof.triple.terminating)
    return ProofNode("Cons", triple, (proof,), assumptions=assumed)


def rule_exist(premises):
    """Exist: from ``∀x. ⊢{P_x} C {Q_x}``,
    ``⊢{∃x. P_x} C {∃x. Q_x}``.

    ``premises`` maps each index value to its proof; the index set must
    be finite here (the schematic rule quantifies over all values — use
    an index set covering the relevant domain).
    """
    premises = dict(premises)
    require(len(premises) > 0, "Exist: empty index set")
    indices = tuple(premises.keys())
    command = premises[indices[0]].command
    terminating = True
    for x in indices:
        require_same_command(command, premises[x].command, "Exist")
        terminating = terminating and premises[x].triple.terminating
    pre = ExistsValue(lambda x: premises[x].pre, indices)
    post = ExistsValue(lambda x: premises[x].post, indices)
    triple = Triple(pre, command, post, terminating)
    return ProofNode("Exist", triple, tuple(premises.values()))


def rule_assume(post, cond):
    """Assume: ``⊢ {λS. P({φ ∈ S | b(φ_P)})} assume b {P}``."""
    cond = as_bexpr(cond)
    pre = FilterPre(post, cond)
    return ProofNode("Assume", Triple(pre, Assume(cond), post))


def rule_assign(post, var, expr):
    """Assign: ``⊢ {λS. P(S[x := e])} x := e {P}``."""
    expr = as_expr(expr)
    pre = AssignPre(post, var, expr)
    return ProofNode("Assign", Triple(pre, Assign(var, expr), post, terminating=True))


def rule_havoc(post, var):
    """Havoc: ``⊢ {λS. P(S[x := any v])} x := nonDet() {P}``."""
    pre = HavocPre(post, var)
    return ProofNode("Havoc", Triple(pre, Havoc(var), post, terminating=True))


def rule_iter(family, proofs, stable_from, period=1):
    """Iter: from ``⊢{I_n} C {I_{n+1}}`` for all ``n``,
    ``⊢{I_0} C* {⨂_{n∈N} I_n}`` (Def. 7).

    ``family(n)`` gives the indexed invariant ``I_n``.  The rule is
    schematic over all naturals; to make the premise check finite the
    family must be *eventually periodic*: for ``n ≥ stable_from``,
    ``family(n)`` matches ``family(stable_from + (n - stable_from) %
    period)``.  ``proofs`` then covers ``n = 0 … stable_from + period - 1``
    and those premises cover every index.
    """
    proofs = tuple(proofs)
    needed = stable_from + period
    require(
        len(proofs) == needed,
        "Iter: need proofs for n = 0 … stable_from+period-1 "
        "(%d given, %d needed)" % (len(proofs), needed),
    )
    for r in range(period):
        require_match(
            family(stable_from + r),
            family(stable_from + r + period),
            "Iter (family must be periodic from stable_from)",
        )
    body = proofs[0].command
    for n, proof in enumerate(proofs):
        require_same_command(body, proof.command, "Iter premise %d" % n)
        require_match(proof.pre, family(n), "Iter premise %d precondition" % n)
        post_index = n + 1
        if post_index >= stable_from + period:
            post_index = stable_from + (post_index - stable_from) % period
        require_match(
            proof.post, family(post_index), "Iter premise %d postcondition" % n
        )
    post = OTimesFamily(family, stable_from, period)
    # C* always admits the zero-iteration execution, so the terminating
    # flavour of the judgment holds as well (Def. 24).
    triple = Triple(family(0), Iter(body), post, terminating=True)
    return ProofNode("Iter", triple, proofs)


def naive_choice_rule_would_conclude(pre, left_post, right_post):
    """The *unsound* naive Choice conclusion ``{P} C1+C2 {Q}`` with a
    shared postcondition — exposed only so tests and benches can exhibit
    the Sect. 3.3 counterexample showing why ``⊗`` is needed."""
    raise ProofError(
        "the naive Choice rule (shared postcondition, no ⊗) is unsound in "
        "Hyper Hoare Logic — see Sect. 3.3 and "
        "tests/logic/test_core_rules.py::test_naive_choice_unsound"
    )
