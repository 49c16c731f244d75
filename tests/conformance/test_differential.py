"""Differential conformance: cross-backend agreement + the shrinker."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import (
    DifferentialChecker,
    run_fuzz,
    shrink_command,
    shrink_triple,
    triple_size,
)
from repro.conformance.shrink import assertion_candidates, command_candidates
from repro.gen.config import FUZZ_CONFIG
from repro.gen.triples import Triple, regenerate
from repro.lang.ast import Assign, Choice, Havoc, Iter, Seq, Skip
from repro.lang.parser import parse_command
from repro.assertions.parser import parse_assertion
from repro.assertions.syntax import SBool

#: One checker for the whole module: the shared image cache is the point.
CHECKER = DifferentialChecker(FUZZ_CONFIG)


class TestAgreementProperties:
    """Engine, naive oracle, syntactic rules and embeddings must agree."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_all_backends_agree_on_generated_trials(self, seed, index):
        outcome = CHECKER.check_trial(regenerate(seed, index, FUZZ_CONFIG))
        assert outcome.agreed, "\n\n".join(
            d.describe() for d in outcome.disagreements
        )

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_loop_trials_agree(self, seed):
        trial = regenerate(seed, 0, FUZZ_CONFIG, straightline_bias=0.0, loop_bias=1.0)
        outcome = CHECKER.check_trial(trial)
        assert outcome.agreed, "\n\n".join(
            d.describe() for d in outcome.disagreements
        )

    def test_fixed_stream_has_zero_disagreements(self):
        report = run_fuzz(0, 30)
        assert report.agreed, report.summary()
        assert len(report.outcomes) == 30
        # every trial ran the full applicable check battery
        assert all(len(o.checks) >= 5 for o in report.outcomes)

    def test_sharded_run_matches_inline(self):
        inline = run_fuzz(5, 16)
        sharded = run_fuzz(5, 16, shards=3)
        assert inline.trial_log() == sharded.trial_log()
        assert sharded.shards == 3


class TestHarnessReporting:
    def test_trial_log_is_deterministic(self):
        assert run_fuzz(3, 12).trial_log() == run_fuzz(3, 12).trial_log()

    def test_summary_counts(self):
        report = run_fuzz(0, 10)
        valid = sum(1 for o in report.outcomes if o.oracle_valid)
        assert "%d valid, %d invalid" % (valid, 10 - valid) in report.summary()
        assert bool(report) is report.agreed

    def test_reported_disagreement_carries_shrunk_reproducer(self, monkeypatch):
        checker = DifferentialChecker(FUZZ_CONFIG, embeddings=False)

        def fake_check(triple, oracle=None):
            # "disagree" whenever the command writes x via Havoc
            found = []

            def walk(node):
                if isinstance(node, Havoc) and node.var == "x":
                    found.append(node)
                for attr in ("first", "second", "left", "right", "body"):
                    child = getattr(node, attr, None)
                    if child is not None:
                        walk(child)

            walk(triple.command)
            return "fake disagreement" if found else None

        monkeypatch.setattr(checker, "oracle_disagreement", fake_check)
        trial = regenerate(0, 0, FUZZ_CONFIG)
        big = Triple(
            trial.triple.pre,
            parse_command("y := 1; { x := nonDet() } + { skip }; y := 0"),
            trial.triple.post,
        )
        outcome = checker.check_trial(type(trial)(0, 0, big))
        kinds = [d.kind for d in outcome.disagreements]
        assert kinds == ["engine-vs-naive"]
        reproducer = outcome.disagreements[0].reproducer
        # greedy shrinking must reduce to exactly the offending havoc with
        # trivial pre/post
        assert reproducer.command == Havoc("x")
        assert reproducer.pre == SBool(True)
        assert reproducer.post == SBool(True)


class TestEngineVsNaive:
    def test_checked_sets_drift_is_a_disagreement(self, monkeypatch):
        checker = DifferentialChecker(FUZZ_CONFIG, embeddings=False)
        triple = regenerate(0, 0, FUZZ_CONFIG).triple
        assert checker.oracle_disagreement(triple) is None
        engine = checker.session.engine
        real_check = engine.check

        def drifted_check(*args, **kwargs):
            result = real_check(*args, **kwargs)
            return dataclasses.replace(result, checked_sets=result.checked_sets + 1)

        # verdict and witness stay right; only the enumeration count drifts
        monkeypatch.setattr(engine, "check", drifted_check)
        detail = checker.oracle_disagreement(triple)
        assert detail is not None and "checked" in detail


class TestShrinker:
    def test_command_candidates_strictly_smaller(self):
        command = parse_command("x := 1; { y := nonDet() } + { loop { skip } }")

        def size(c):
            return triple_size(Triple(SBool(True), c, SBool(True)))

        for candidate in command_candidates(command):
            assert size(candidate) < size(command)

    def test_assertion_candidates_strictly_smaller(self):
        assertion = parse_assertion(
            "forall <p>. (p(x) == 0 && (exists v. v >= p(y)))"
        )

        def size(a):
            return triple_size(Triple(a, Skip(), SBool(True)))

        for candidate in assertion_candidates(assertion):
            assert size(candidate) < size(assertion)

    def test_shrink_command_to_single_havoc(self):
        command = parse_command(
            "y := 1; { x := nonDet() } + { skip }; loop { y := 0 }"
        )

        def fails(c):
            stack = [c]
            while stack:
                node = stack.pop()
                if isinstance(node, Havoc):
                    return True
                for attr in ("first", "second", "left", "right", "body"):
                    child = getattr(node, attr, None)
                    if child is not None:
                        stack.append(child)
            return False

        assert shrink_command(command, fails) == Havoc("x")

    def test_shrink_command_keeps_required_pair(self):
        # the failure needs BOTH an assignment to x and one to y: the
        # shrinker must keep a Seq of the two and drop everything else
        command = parse_command("skip; x := 1; loop { skip }; y := 2; skip")

        def fails(c):
            text_vars = set()
            stack = [c]
            while stack:
                node = stack.pop()
                if isinstance(node, Assign):
                    text_vars.add(node.var)
                for attr in ("first", "second", "left", "right", "body"):
                    child = getattr(node, attr, None)
                    if child is not None:
                        stack.append(child)
            return {"x", "y"} <= text_vars

        shrunk = shrink_command(command, fails)
        assert isinstance(shrunk, Seq)
        assert not any(
            isinstance(n, (Iter, Choice, Skip))
            for n in _walk(shrunk)
        )

    def test_shrink_triple_minimizes_assertions_too(self):
        triple = Triple(
            parse_assertion("forall <p>. (p(x) == 0 && p(y) == 0)"),
            parse_command("x := 1; y := 2"),
            parse_assertion("exists <p>. (p(x) == 1 || p(y) == 9)"),
        )

        def fails(t):
            # failure depends only on the command mentioning x
            return any(
                isinstance(n, Assign) and n.var == "x" for n in _walk(t.command)
            )

        shrunk = shrink_triple(triple, fails)
        assert shrunk.command == Assign("x", parse_command("x := 1").expr)
        assert shrunk.pre == SBool(True)
        assert shrunk.post == SBool(True)
        assert triple_size(shrunk) < triple_size(triple)

    def test_shrink_is_deterministic(self):
        triple = Triple(
            parse_assertion("exists <p>. p(x) == 0"),
            parse_command("{ x := nonDet() } + { y := 1 }; skip"),
            parse_assertion("forall <p>. p(y) == 1"),
        )

        def fails(t):
            return any(isinstance(n, Havoc) for n in _walk(t.command))

        assert shrink_triple(triple, fails) == shrink_triple(triple, fails)

    def test_shrink_drops_unneeded_invariant(self):
        triple = Triple(
            parse_assertion("exists <p>. p(x) == 0"),
            parse_command("x := nonDet()"),
            parse_assertion("forall <p>. p(y) == 1"),
            invariant=parse_assertion("forall <p>. p(x) == 0"),
        )

        def fails(t):
            return any(isinstance(n, Havoc) for n in _walk(t.command))

        assert shrink_triple(triple, fails).invariant is None


def _walk(command):
    stack = [command]
    while stack:
        node = stack.pop()
        yield node
        for attr in ("first", "second", "left", "right", "body"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)


class TestFuzzCLI:
    def test_fuzz_quick_exits_zero(self, capsys):
        from repro.__main__ import main

        code = main(["fuzz", "--seed", "0", "--trials", "8", "-q"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 disagreements" in out

    def test_fuzz_streams_trial_log(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("trial 000") == 3

    def test_fuzz_bad_input(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--vars", "", "--trials", "1"]) == 3
        # bad shard/trial counts are bad input (3), not a disagreement (1)
        assert main(["fuzz", "--trials", "2", "--shards", "0"]) == 3
        assert main(["fuzz", "--trials", "0"]) == 3
        assert main(["fuzz", "--trials", "-5"]) == 3

    def test_fuzz_quick_respects_equals_form_trials(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--quick", "--trials=3"]) == 0
        out = capsys.readouterr().out
        assert "3 trials" in out
        assert out.count("trial 000") == 3

    def test_fuzz_shards_flag(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--trials", "6", "--shards", "2", "-q"]) == 0
        assert "2 shards" in capsys.readouterr().out

    def test_cli_stream_matches_report_log(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--trials", "4", "--seed", "2"]) == 0
        streamed = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("trial ")
        ]
        assert "\n".join(streamed) == run_fuzz(2, 4).trial_log()


class TestCheckFilter:
    def test_every_trial_runs_all_nine_checks_by_default(self):
        from repro.conformance import CHECK_KINDS

        report = run_fuzz(0, 6)
        assert all(o.checks == CHECK_KINDS for o in report.outcomes)

    def test_include_selector_narrows_battery(self):
        report = run_fuzz(0, 6, checks=("symbolic",))
        assert all(o.checks == ("symbolic-vs-engine",) for o in report.outcomes)

    def test_exclude_selector_drops_matches(self):
        report = run_fuzz(0, 6, checks=("-embedding",))
        for outcome in report.outcomes:
            assert "hl-embedding" not in outcome.checks
            assert "il-embedding" not in outcome.checks
            assert "engine-vs-naive" in outcome.checks

    def test_exclude_wins_over_include(self):
        checker = DifferentialChecker(
            FUZZ_CONFIG, checks=("engine", "-naive")
        )
        assert not checker.check_enabled("engine-vs-naive")
        assert not checker.check_enabled("chain-vs-oracle")

    def test_filter_survives_sharding(self):
        inline = run_fuzz(5, 12, checks=("symbolic",))
        sharded = run_fuzz(5, 12, shards=3, checks=("symbolic",))
        assert inline.trial_log() == sharded.trial_log()
        assert all(o.checks == ("symbolic-vs-engine",) for o in sharded.outcomes)

    def test_cli_checks_flag(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--trials", "4", "-q", "--checks", "symbolic"]) == 0
        assert "4 differential checks" in capsys.readouterr().out

    def test_cli_rejects_unknown_selector(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--trials", "2", "--checks", "bogus"]) == 3
        assert "matches no check kind" in capsys.readouterr().err
