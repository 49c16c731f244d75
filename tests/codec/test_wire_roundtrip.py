"""Codec round-trip properties: ``from_wire(to_wire(x)) == x``.

Every object class the wire format carries — tasks, outcomes, proofs,
witnesses, task results, reports, trials, disagreements, fuzz reports —
is exercised over the deterministic :mod:`repro.gen` trial streams, and
every document additionally survives a real JSON ``dumps``/``loads``
round-trip (the wire format is exactly what the ``--json`` CLI emits).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Proved, Refuted, Session, Undecided
from repro.api.task import VerificationTask
from repro.checker.counterexample import Witness
from repro.codec import SCHEMA_VERSION, WireError, from_wire, to_wire
from repro.conformance import Disagreement, TrialOutcome, run_fuzz
from repro.gen import GenConfig, trials
from repro.gen.triples import regenerate

#: The conformance harness's tiny universe: cheap exhaustive verdicts.
CONFIG = GenConfig(lo=0, hi=1, max_command_depth=2, max_assertion_depth=2)


def through_json(document):
    """A wire document after a real JSON round-trip."""
    return json.loads(json.dumps(document))


def roundtrip(obj):
    document = to_wire(obj)
    assert document["schema_version"] == SCHEMA_VERSION
    assert "$kind" in document
    decoded = from_wire(through_json(document))
    assert decoded == obj
    assert type(decoded) is type(obj)
    return decoded


def gen_stream(seed, count, **kwargs):
    return [t.triple for t in trials(seed, count, CONFIG, **kwargs)]


class TestGeneratedObjects:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_gen_triples_and_trials(self, seed):
        for trial in trials(seed, 15, CONFIG, loop_bias=0.3):
            roundtrip(trial.triple)
            roundtrip(trial)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_tasks(self, seed):
        for index, triple in enumerate(gen_stream(seed, 15, loop_bias=0.3)):
            task = VerificationTask(
                pre=triple.pre,
                command=triple.command,
                post=triple.post,
                invariant=triple.invariant,
                label="t%d" % index,
            )
            roundtrip(task)


class TestLiveResults:
    """Round-trip what real verification runs produce."""

    @pytest.fixture(scope="class")
    def report(self):
        session = Session(CONFIG.pvars, lo=CONFIG.lo, hi=CONFIG.hi)
        batch = [
            (t.pre, t.command, t.post, t.invariant)
            for t in gen_stream(2, 25, straightline_bias=0.5, loop_bias=0.2)
        ]
        return session.verify_many(batch)

    def test_report_and_results(self, report):
        roundtrip(report)
        for result in report:
            roundtrip(result)

    def test_every_outcome_class_appears_and_roundtrips(self, report):
        seen = set()
        for result in report:
            for outcome in result.outcomes:
                seen.add(type(outcome))
                roundtrip(outcome)
        assert {Proved, Refuted, Undecided} <= seen

    def test_proofs_and_witnesses(self, report):
        proofs = [r.proof for r in report if r.proof is not None]
        witnesses = [r.witness for r in report if r.witness is not None]
        assert proofs, "the generated batch should prove something syntactically"
        assert witnesses, "the generated batch should refute something"
        for proof in proofs:
            decoded = roundtrip(proof)
            assert decoded.rules_used() == proof.rules_used()
            roundtrip(proof.triple)
        for witness in witnesses:
            roundtrip(witness)

    def test_elapsed_floats_survive_json_exactly(self, report):
        decoded = from_wire(through_json(to_wire(report)))
        assert decoded.elapsed == report.elapsed
        for mine, theirs in zip(report, decoded):
            assert [o.elapsed for o in mine.outcomes] == [
                o.elapsed for o in theirs.outcomes
            ]


class TestConformanceObjects:
    def test_disagreement_and_trial_outcome(self):
        trial = regenerate(5, 3, CONFIG)
        disagreement = Disagreement(
            "engine-vs-naive",
            "engine says valid, naive oracle says invalid",
            trial_seed=5,
            trial_index=3,
            reproducer=trial.triple,
        )
        roundtrip(disagreement)
        outcome = TrialOutcome(
            trial,
            oracle_valid=True,
            checks=("engine-vs-naive", "chain-vs-oracle"),
            disagreements=(disagreement,),
        )
        roundtrip(outcome)

    def test_live_fuzz_report(self):
        report = run_fuzz(0, 6, config=CONFIG, embeddings=False)
        assert report.agreed
        decoded = roundtrip(report)
        assert decoded.trial_log() == report.trial_log()
        assert decoded.summary() == report.summary()


class TestCommandTrees:
    """Commands travel as trees: every constructor round-trips exactly,
    and decoding one never runs the program parser."""

    WIDE = GenConfig(pvars=("a", "b", "c"), hi=5, max_command_depth=4)

    @staticmethod
    def sugared(rng, config):
        from repro.gen.programs import gen_command, gen_condition
        from repro.lang.sugar import if_then, if_then_else, while_loop

        cond = gen_condition(rng, config)
        body = gen_command(rng, config, max_depth=2)
        other = gen_command(rng, config, max_depth=2)
        return [
            if_then_else(cond, body, other),
            if_then(cond, body),
            while_loop(cond, body),
            while_loop(cond.negate(), if_then_else(cond, other, body)),
        ]

    @given(st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_generated_commands_and_sugar_roundtrip(self, seed):
        from repro.gen.programs import gen_command
        from repro.lang.sugar import match_if_then_else, match_while

        rng = random.Random(seed)
        command = gen_command(rng, self.WIDE)
        assert roundtrip(command) == command
        for sugared in self.sugared(rng, self.WIDE):
            decoded = roundtrip(sugared)
            assert match_while(decoded) == match_while(sugared)
            assert match_if_then_else(decoded) == match_if_then_else(sugared)

    def test_every_node_kind_roundtrips(self):
        from repro.lang.ast import Assign, Assume, Choice, Havoc, Iter, Skip, seq
        from repro.lang.expr import BLit, BNot, FunApp, Lit, TupleLit, UnOp, V
        from repro.lang.sugar import rand_int_bounded

        last = Assign("b", Lit(True))
        command = seq(
            Skip(),
            Assign("s", Lit("x")),  # not the variable x
            Choice(Iter(Havoc("z")), Skip()),
            rand_int_bounded("y", 0, V("x") + 2),
            Assign("t", TupleLit((V("x"), Lit((1, (True, 0)))))),
            Assign("n", FunApp("len", (V("t"),)) - UnOp("abs", -V("x"))),
            Assume(BNot(BLit(False)) & (V("x").ne(1) | V("y").ge(V("x") * 3))),
            last,
        )
        decoded = roundtrip(command)
        while decoded != last:
            decoded = decoded.second
        assert decoded.expr.value is True  # a bool literal stays a bool

    def test_decoding_never_parses(self, monkeypatch):
        import repro.lang.parser as parser

        document = through_json(to_wire(regenerate(3, 0, CONFIG).triple))

        def refuse(*args, **kwargs):
            raise AssertionError("the codec parsed program text")

        monkeypatch.setattr(parser, "_tokenize", refuse)
        assert from_wire(document).command is not None

    def test_unknown_command_tag_is_a_wire_error(self):
        for tree in (["jump"], ["assign", "x", ["ptr", 1]], ["assume", ["maybe"]]):
            with pytest.raises(WireError, match="tag"):
                from_wire(
                    {"$kind": "command", "tree": tree, "schema_version": SCHEMA_VERSION}
                )


class TestWireContract:
    def test_wrong_schema_version_refused(self):
        document = to_wire(Proved("exhaustive", "oracle"))
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(WireError, match="schema_version"):
            from_wire(document)

    def test_unknown_kind_refused(self):
        with pytest.raises(WireError, match="kind"):
            from_wire({"$kind": "no-such-kind", "schema_version": SCHEMA_VERSION})

    def test_missing_kind_refused(self):
        with pytest.raises(WireError, match="\\$kind"):
            from_wire({"schema_version": SCHEMA_VERSION})

    def test_truncated_payload_raises_wire_error_not_index_error(self):
        with pytest.raises(WireError, match="malformed"):
            from_wire(
                {"$kind": "assertion", "tree": [], "schema_version": SCHEMA_VERSION}
            )
        with pytest.raises(WireError, match="malformed"):
            from_wire(
                {
                    "$kind": "assertion",
                    "tree": ["cmp", "=="],  # operands missing
                    "schema_version": SCHEMA_VERSION,
                }
            )

    def test_leaves_are_bare_and_a_string_literal_is_not_a_variable(self):
        from repro.assertions.syntax import HBin, HLit, HProg, HVar, SCmp, SForallVal

        assertion = SForallVal(
            "v", SCmp("==", HProg("a", "x"), HBin("+", HVar("v"), HLit(1)))
        )
        tree = to_wire(assertion)["tree"]
        assert tree == ["forall-val", "v", ["cmp", "==", ["pvar", "a", "x"], ["bin", "+", "v", 1]]]
        roundtrip(assertion)
        literal = SCmp("==", HLit("v"), HVar("v"))
        assert roundtrip(literal).left == HLit("v")

    def test_semantic_assertion_rejected_loudly(self):
        from repro.assertions.semantic import sem as sem_assertion
        from repro.lang.parser import parse_command

        task = VerificationTask(
            pre=sem_assertion(lambda S: True, "anything"),
            command=parse_command("skip"),
            post=sem_assertion(lambda S: True, "anything"),
        )
        with pytest.raises(WireError, match="syntactic"):
            to_wire(task)

    def test_witness_set_order_is_canonical(self):
        session = Session(["l"], lo=0, hi=1)
        result = session.verify("true", "skip", "forall <a>, <b>. a(l) == b(l)")
        witness = result.witness
        assert witness is not None
        # encoding is order-canonical: two equal witnesses, one document
        flipped = Witness(frozenset(witness.pre_set), frozenset(witness.post_set))
        assert to_wire(witness) == to_wire(flipped)

    def test_undecided_reason_note_sync(self):
        by_reason = Undecided("exhaustive", "oracle", reason="budget exhausted")
        by_note = Undecided("exhaustive", "oracle", note="budget exhausted")
        assert by_reason == by_note
        assert roundtrip(by_reason).note == "budget exhausted"


#: Run in a fresh interpreter: the codec registry fills on first use, so
#: only a process that has not encoded anything yet can race on it.
_FIRST_USE_RACE = """
import threading
from repro.api.task import VerificationTask
from repro.assertions.parser import parse_assertion
from repro.codec import to_wire
from repro.lang.parser import parse_command

task = VerificationTask(
    parse_assertion("true"), parse_command("skip"), parse_assertion("true")
)
barrier = threading.Barrier(4)
errors = []

def work():
    barrier.wait()
    try:
        to_wire(task)
    except Exception as error:
        errors.append(error)

threads = [threading.Thread(target=work) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(len(errors))
"""


class TestRegistryFirstUse:
    def test_concurrent_first_encodes_all_succeed(self):
        import os
        import subprocess
        import sys

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _FIRST_USE_RACE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"
