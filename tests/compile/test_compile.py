"""The compile-once evaluation core: parity, incrementality, fallbacks.

The compiled artifacts must be *observationally identical* to the
interpreted ``eval``/``holds`` they replace — that is the contract the
checker engine, the entailment oracle and the backends rely on.  The
property tests drive compiled-vs-interpreted over generated programs and
Def. 9 assertions; the regression classes pin the enumeration-order
guarantee, the fallback taxonomy and the bounded image cache.
"""

import random

import pytest
from hypothesis import given, settings

from repro.assertions import (
    EMP,
    NOT_EMP,
    TRUE_H,
    box,
    cardinality,
    contains_state,
    equals_set,
    exists_s,
    exists_state,
    exists_v,
    forall_s,
    forall_states,
    forall_v,
    gni,
    gni_violation,
    has_min,
    hv,
    low,
    low_pred,
    not_emp_s,
    otimes,
    pv,
    singleton,
    subset_of,
    superset_of,
)
from repro.checker import (
    CheckerEngine,
    ImageCache,
    Universe,
    candidate_initial_sets,
    naive_check_triple,
)
from repro.compile import (
    CompileCache,
    compile_assertion,
    compile_bexpr,
    compile_command,
    compile_expr,
)
from repro.errors import EvaluationError
from repro.lang import parse_command
from repro.lang.expr import V
from repro.semantics.bigstep import post_states, post_states_interpreted
from repro.semantics.extended import sem as extended_sem
from repro.util import iter_subsets
from repro.values import IntRange

from tests.strategies import HI, LO, VARS, commands, hyper_assertions

DOMAIN = IntRange(LO, HI)


def xy_universe():
    return Universe(list(VARS), IntRange(LO, HI))


# ---------------------------------------------------------------------------
# expressions and commands
# ---------------------------------------------------------------------------


class TestExpressionCompilation:
    def test_expr_parity_on_programs(self):
        uni = xy_universe()
        command = parse_command("x := (x + y) * 2 % 3; y := max(x, y - 1)")
        for phi in uni.ext_states():
            assert post_states(command, phi.prog, uni.domain) == \
                post_states_interpreted(command, phi.prog, uni.domain)

    def test_bexpr_short_circuit_and_totality(self):
        pred = (V("x").eq(0) & V("y").le(1)) | ~V("x").ge(2)
        compiled = compile_bexpr(pred)
        for phi in xy_universe().ext_states():
            assert compiled(phi.prog) == pred.eval(phi.prog)

    def test_unbound_variable_raises_evaluation_error(self):
        from repro.semantics.state import State

        compiled = compile_expr(V("nope") + 1)
        with pytest.raises(EvaluationError):
            compiled(State({"x": 0}))

    @settings(max_examples=40, deadline=None)
    @given(command=commands(max_depth=3))
    def test_command_step_matches_interpreter(self, command):
        uni = xy_universe()
        step = compile_command(command, uni.domain)
        for phi in uni.ext_states():
            assert step(phi.prog, 100000) == post_states_interpreted(
                command, phi.prog, uni.domain
            )

    def test_divergence_cap_matches_interpreter(self):
        uni = Universe(["x", "y"], IntRange(0, 2))
        command = parse_command("x := nonDet(); y := nonDet()")
        step = compile_command(command, uni.domain)
        prog = uni.ext_states()[0].prog
        with pytest.raises(EvaluationError):
            step(prog, 4)
        with pytest.raises(EvaluationError):
            post_states_interpreted(command, prog, uni.domain, 4)


# ---------------------------------------------------------------------------
# assertions: whole-set and incremental parity
# ---------------------------------------------------------------------------


def lifo_walk_parity(assertion, domain, states, seed, steps=120):
    """Drive a random LIFO push/pop walk; value() must equal holds()."""
    compiled = compile_assertion(assertion, domain)
    evaluator = compiled.evaluator()
    reference = []  # stack of batches, mirroring the evaluator's multiset
    rng = random.Random(seed)
    for _ in range(steps):
        if reference and rng.random() < 0.45:
            batch = reference.pop()
            evaluator.pop_many(len(batch))
        else:
            batch = [rng.choice(states) for _ in range(rng.randint(1, 3))]
            evaluator.push_many(batch)
            reference.append(batch)
        current = frozenset(phi for batch in reference for phi in batch)
        assert evaluator.value() == bool(assertion.holds(current, domain)), (
            assertion,
            current,
        )


NAMED_SHAPES = [
    TRUE_H,
    EMP,
    NOT_EMP,
    not_emp_s,
    low("x"),
    box(V("x").ge(0)),
    low_pred(V("y").eq(1)),
    gni("x", "y"),
    gni_violation("x", "y"),
    has_min("y"),
    forall_v("v", forall_s("p", (pv("p", "x") + hv("v")).ge(0))),
    forall_s("p", forall_v("v", forall_s("q", (pv("p", "x") + hv("v")).ge(pv("q", "x"))))),
    exists_v("v", exists_s("p", pv("p", "x").eq(hv("v")))),
    forall_s("p", forall_s("p", pv("p", "x").eq(0))),  # shadowed binder
    # expansion-bound value variable free inside a fallback subtree
    # (regression: the whole-set fallback must keep the delta bindings)
    exists_v("v", forall_s("p", exists_s("q", (pv("p", "x") + hv("v")).ge(pv("q", "x"))))),
    forall_v("v", exists_s("p", forall_s("q", pv("q", "y").le(pv("p", "y") + hv("v"))))),
    low("x") & NOT_EMP,
    ~low("y"),
    singleton(),
    cardinality(lambda n: n <= 2),
    forall_states(lambda phi: phi.prog["x"] >= 0),
    exists_state(lambda phi: phi.prog["y"] == 1),
]


class TestAssertionParity:
    @pytest.mark.parametrize("index", range(len(NAMED_SHAPES)))
    def test_named_shapes_whole_and_incremental(self, index):
        assertion = NAMED_SHAPES[index]
        uni = xy_universe()
        states = uni.ext_states()
        compiled = compile_assertion(assertion, uni.domain)
        for subset in iter_subsets(states):
            assert compiled.holds(subset) == bool(
                assertion.holds(subset, uni.domain)
            )
        lifo_walk_parity(assertion, uni.domain, states, seed=index)

    def test_set_shape_kernels(self):
        uni = xy_universe()
        states = uni.ext_states()
        some = frozenset(list(states)[:2])
        for assertion in [
            contains_state(list(states)[0]),
            equals_set(some),
            subset_of(some),
            superset_of(some),
        ]:
            compiled = compile_assertion(assertion, uni.domain)
            assert compiled.incremental
            for subset in iter_subsets(states, max_size=3):
                assert compiled.holds(subset) == bool(
                    assertion.holds(subset, uni.domain)
                )
            lifo_walk_parity(assertion, uni.domain, states, seed=7)

    @settings(max_examples=40, deadline=None)
    @given(assertion=hyper_assertions(max_depth=3))
    def test_generated_assertions_agree(self, assertion):
        uni = xy_universe()
        states = uni.ext_states()
        compiled = compile_assertion(assertion, uni.domain)
        for subset in iter_subsets(states, max_size=2):
            assert compiled.holds(subset) == bool(
                assertion.holds(subset, uni.domain)
            )
        lifo_walk_parity(assertion, uni.domain, states, seed=11, steps=60)


class TestFallbacks:
    def test_single_block_forms_are_incremental(self):
        uni = xy_universe()
        for assertion in [low("x"), box(V("x").ge(0)), not_emp_s,
                          forall_s("p", forall_s("q", pv("p", "x").eq(pv("q", "x"))))]:
            assert compile_assertion(assertion, uni.domain).incremental

    def test_alternating_blocks_fall_back_with_reason(self):
        uni = xy_universe()
        compiled = compile_assertion(gni("x", "y"), uni.domain)
        assert not compiled.incremental
        assert any("non-monotone" in r for r in compiled.fallback_reasons)

    def test_opaque_semantic_predicate_falls_back_with_reason(self):
        uni = xy_universe()
        from repro.assertions import sem

        compiled = compile_assertion(sem(lambda S: len(S) % 2 == 0), uni.domain)
        assert not compiled.incremental
        assert any("opaque semantic" in r for r in compiled.fallback_reasons)

    def test_set_splitting_operators_fall_back(self):
        uni = xy_universe()
        compiled = compile_assertion(otimes(EMP, low("x")), uni.domain)
        assert not compiled.incremental
        assert any("non-incremental" in r for r in compiled.fallback_reasons)

    def test_cache_records_fallback_counts(self):
        cache = CompileCache()
        uni = xy_universe()
        compile_assertion(gni("x", "y"), uni.domain, cache)
        stats = cache.stats()
        assert sum(stats["fallbacks"].values()) >= 1

    def test_constant_assertions_flagged(self):
        uni = xy_universe()
        assert compile_assertion(TRUE_H, uni.domain).constant
        assert compile_assertion(
            forall_v("v", hv("v").ge(0)), uni.domain
        ).constant
        assert not compile_assertion(low("x"), uni.domain).constant


class TestReviewRegressions:
    """Edge cases outside the generators' reach (found in review)."""

    def test_poisoned_projection_preserves_short_circuit_parity(self):
        # the body never evaluates len() on an int (short-circuited by
        # the `or`), so the interpreter succeeds; the eager projection
        # must not crash the incremental evaluator either
        from repro.assertions.syntax import (
            HFun, HLit, HProg, SBool, SCmp, SForallState, SOr,
        )

        uni = xy_universe()
        states = uni.ext_states()
        assertion = SForallState(
            "a",
            SOr(SBool(True), SCmp(">", HFun("len", (HProg("a", "x"),)), HLit(0))),
        )
        compiled = compile_assertion(assertion, uni.domain)
        evaluator = compiled.evaluator()
        seen = []
        for phi in states:
            evaluator.push_state(phi)
            seen.append(phi)
            assert evaluator.value() == bool(
                assertion.holds(frozenset(seen), uni.domain)
            )

    def test_generated_body_raises_evaluation_error_for_unbound_value(self):
        from repro.assertions.syntax import HProg, HVar, SCmp, SForallState

        uni = xy_universe()
        assertion = SForallState("a", SCmp(">=", HProg("a", "x"), HVar("y")))
        evaluator = compile_assertion(assertion, uni.domain).evaluator()
        with pytest.raises(EvaluationError):
            evaluator.push_state(uni.ext_states()[0])
            evaluator.value()

    def test_value_quantifier_above_alternation_falls_back_once(self):
        cache = CompileCache()
        uni = Universe(["x", "y"], IntRange(0, 7))
        assertion = forall_s(
            "a",
            forall_v("y", exists_s("b", (pv("a", "x") + hv("y")).ge(pv("b", "x")))),
        )
        compiled = compile_assertion(assertion, uni.domain, cache)
        assert len(compiled.fallback_reasons) == 1
        assert sum(cache.stats()["fallbacks"].values()) == 1


class TestCompileCache:
    def test_structural_sharing(self):
        cache = CompileCache()
        uni = xy_universe()
        first = compile_assertion(low("x"), uni.domain, cache)
        second = compile_assertion(low("x"), uni.domain, cache)
        assert first is second
        stats = cache.stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_command_artifacts_cached(self):
        cache = CompileCache()
        uni = xy_universe()
        command = parse_command("x := x + 1")
        step1 = compile_command(command, uni.domain, cache)
        step2 = compile_command(parse_command("x := x + 1"), uni.domain, cache)
        assert step1 is step2


# ---------------------------------------------------------------------------
# engine integration: order, witnesses, counts
# ---------------------------------------------------------------------------


def reference_scan(pre, command, post, uni):
    """The scan sequence the naive reference walks: every candidate set,
    ``holds`` per set, ``sem`` re-run under the interpreted executor."""
    domain = uni.domain
    out = []
    for subset in candidate_initial_sets(pre, uni):
        if not pre.holds(subset, domain):
            out.append((subset, None, True))
            continue
        post_set = extended_sem(
            command, subset, domain, executor=post_states_interpreted
        )
        out.append((subset, post_set, bool(post.holds(post_set, domain))))
    return out


class TestEnumerationOrderRegression:
    """Compilation must not change what the engine enumerates, in what
    order, or which witness it reports: the engine is held to the
    interpreted naive reference."""

    TRIPLES = [
        (TRUE_H, "x := nonDet()", low("x")),
        (low("x"), "y := x", low("y")),
        (not_emp_s, "x := 0", exists_s("p", pv("p", "x").eq(1))),
        (gni("x", "y"), "y := nonDet()", gni("x", "y")),
        (low("x") & low("y"), "x := x + y", TRUE_H),
    ]

    @pytest.mark.parametrize("index", range(len(TRIPLES)))
    def test_scan_sequences_identical(self, index):
        pre, source, post = self.TRIPLES[index]
        command = parse_command(source)
        uni = xy_universe()
        engine = CheckerEngine(uni, ImageCache())
        states_of = uni.states_of
        seq_engine = [
            (states_of(chosen), None if acc is None else states_of(acc), ok)
            for chosen, acc, ok in engine.scan_masks(
                pre, command, post, prefilter=False
            )
        ]
        assert seq_engine == reference_scan(pre, command, post, uni)

    @pytest.mark.parametrize("index", range(len(TRIPLES)))
    def test_find_counterexample_unchanged(self, index):
        from repro.checker import find_counterexample

        pre, source, post = self.TRIPLES[index]
        command = parse_command(source)
        uni = xy_universe()
        found = find_counterexample(
            pre, command, post, uni, engine=CheckerEngine(uni, ImageCache())
        )
        naive = naive_check_triple(pre, command, post, uni)
        assert found == (
            None if naive.valid else (naive.witness_pre, naive.witness_post)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        command=commands(max_depth=2),
        pre=hyper_assertions(max_depth=2),
        post=hyper_assertions(max_depth=2),
    )
    def test_checked_sets_and_witness_match(self, command, pre, post):
        uni = xy_universe()
        engine = CheckerEngine(uni, ImageCache())
        rc = engine.check(pre, command, post, max_size=2, prefilter=False)
        rn = naive_check_triple(pre, command, post, uni, max_size=2)
        assert (rc.valid, rc.witness_pre, rc.witness_post, rc.checked_sets) == (
            rn.valid, rn.witness_pre, rn.witness_post, rn.checked_sets
        )

    def test_engine_repr_names_mode(self):
        uni = xy_universe()
        assert "compiled" in repr(CheckerEngine(uni))


# ---------------------------------------------------------------------------
# bounded image cache (ISSUE 5 satellite)
# ---------------------------------------------------------------------------


class TestImageCacheBound:
    def test_lru_eviction_counts_and_verdicts(self):
        uni = Universe(["x", "y"], IntRange(0, 1))
        cache = ImageCache(max_entries=2)
        engine = CheckerEngine(uni, cache)
        command = parse_command("x := nonDet()")
        # a valid triple walks the full enumeration, executing every
        # state — more distinct entries than the bound allows
        result = engine.check(TRUE_H, command, NOT_EMP | EMP)
        bounded_stats = cache.stats()
        assert bounded_stats["evictions"] > 0
        assert len(cache) <= 2
        # eviction never changes the verdict or witness
        for pre, post in [(TRUE_H, NOT_EMP | EMP), (TRUE_H, low("x"))]:
            bounded = CheckerEngine(uni, ImageCache(max_entries=2)).check(
                pre, command, post
            )
            reference = CheckerEngine(uni, ImageCache()).check(
                pre, command, post
            )
            assert (bounded.valid, bounded.witness_pre, bounded.witness_post) == (
                reference.valid, reference.witness_pre, reference.witness_post
            )
        assert result.valid

    def test_unbounded_by_default(self):
        cache = ImageCache()
        assert cache.max_entries is None
        assert cache.stats()["evictions"] == 0

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            ImageCache(max_entries=0)

    def test_lru_refreshes_on_hit(self):
        uni = Universe(["x"], IntRange(0, 1))
        cache = ImageCache(max_entries=2)
        domain = uni.domain
        states = uni.ext_states()
        a = parse_command("x := 0")
        b = parse_command("x := 1")
        c = parse_command("x := x")
        prog = states[0].prog
        cache.post_image(a, prog, domain)
        cache.post_image(b, prog, domain)
        cache.post_image(a, prog, domain)  # refresh a
        cache.post_image(c, prog, domain)  # evicts b, not a
        misses = cache.stats()["misses"]
        cache.post_image(a, prog, domain)
        assert cache.stats()["misses"] == misses  # still cached

    def test_session_surfaces_image_stats_in_report_summary(self):
        from repro.api import ExhaustiveBackend, Session

        session = Session(
            ["x", "y"], 0, 1, backends=(ExhaustiveBackend(),),
            max_image_entries=3,
        )
        report = session.verify_many([("true", "x := nonDet()", "true")] * 2)
        assert report.counters["image_misses"] > 0
        assert "image cache:" in report.summary()
        assert "evictions" in report.summary()
        info = session.cache_info()
        assert "image_evictions" in info
        assert "compile_hits" in info
