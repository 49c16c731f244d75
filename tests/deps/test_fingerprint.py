"""Structural fingerprints: stability, sensitivity, fallback.

The contract under test (see :mod:`repro.deps.fingerprint`):

- **stability** — equal trees fingerprint equal no matter how they were
  built (parsed, hand-constructed, unpickled), in which order, in which
  process, or under which ``PYTHONHASHSEED``;
- **sensitivity** — *every* single-node edit changes the root
  fingerprint (the mutation battery walks a real task tree and mutates
  one field at a time);
- **fallback** — semantic assertions (Python callables) raise
  :class:`FingerprintError` loudly instead of hashing unstably.
"""

import importlib
import pickle
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.api.task import VerificationTask
from repro.assertions.parser import parse_assertion
from repro.assertions.semantic import sem
from repro.deps.fingerprint import (
    Fingerprint,
    FingerprintError,
    clear_memo,
    combine,
    cone_test,
    context_fingerprint,
    fingerprint,
    fingerprintable,
    task_fingerprint,
)
from repro.assertions.syntax import HLit
from repro.lang.expr import BLit, Lit
from repro.lang.parser import parse_command
from repro.values import IntRange

fingerprint_module = importlib.import_module("repro.deps.fingerprint")

PRE = "forall <a>, <b>. a(l) == b(l)"
CMD = "y := nonDet(); l := h xor y"
POST = "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"


def make_task():
    return VerificationTask(
        pre=parse_assertion(PRE),
        command=parse_command(CMD),
        post=parse_assertion(POST),
    )


class TestStability:
    def test_equal_parses_share_a_fingerprint(self):
        assert fingerprint(parse_command(CMD)) == fingerprint(parse_command(CMD))

    def test_construction_order_does_not_matter(self):
        # build the same task twice with the components created in
        # opposite orders (and the memo cleared in between, so nothing
        # is smuggled through process-wide state)
        pre_a = parse_assertion(PRE)
        cmd_a = parse_command(CMD)
        post_a = parse_assertion(POST)
        first = fingerprint(VerificationTask(pre=pre_a, command=cmd_a, post=post_a))
        clear_memo()
        post_b = parse_assertion(POST)
        cmd_b = parse_command(CMD)
        pre_b = parse_assertion(PRE)
        second = fingerprint(VerificationTask(pre=pre_b, command=cmd_b, post=post_b))
        assert first == second

    def test_pickle_round_trip_preserves_fingerprints(self):
        task = make_task()
        clone = pickle.loads(pickle.dumps(task))
        assert fingerprint(clone) == fingerprint(task)
        assert cone_test([task.command])((clone,))
        # the Fingerprint type itself survives pickling too
        fp = fingerprint(task)
        assert pickle.loads(pickle.dumps(fp)) == fp

    @pytest.mark.parametrize("hashseed", ["1", "99"])
    def test_stable_across_subprocesses_and_hash_seeds(self, hashseed):
        # never id()/hash()-derived: a child process with a different
        # PYTHONHASHSEED must compute byte-identical digests
        import os

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )
        program = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.deps.fingerprint import fingerprint\n"
            "from repro.lang.parser import parse_command\n"
            "from repro.assertions.parser import parse_assertion\n"
            "print(fingerprint(parse_command(%r)))\n"
            "print(fingerprint(parse_assertion(%r)))\n"
        ) % (src, CMD, POST)
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.split()
        assert out[0] == fingerprint(parse_command(CMD))
        assert out[1] == fingerprint(parse_assertion(POST))

    def test_context_fingerprint_ignores_dict_order(self):
        a = context_fingerprint({"lo": 0, "hi": 1, "entailment": "sat"})
        b = context_fingerprint({"entailment": "sat", "hi": 1, "lo": 0})
        assert a == b

    def test_fingerprint_passthrough(self):
        fp = fingerprint(parse_command(CMD))
        assert fingerprint(fp) is fp
        assert isinstance(fp, Fingerprint)
        assert len(fp) == 64


class TestMemo:
    @pytest.mark.parametrize(
        "first,second",
        [
            (HLit(1), HLit(True)),
            (HLit(True), HLit(1)),
            (HLit(1), HLit(1.0)),
            (Lit(1), Lit(True)),
            (Lit(True), Lit(1)),
            (Lit((1, 0)), Lit((True, False))),
            (BLit(1), BLit(True)),
        ],
    )
    def test_equal_comparing_literals_never_share_an_entry(self, first, second):
        # fingerprints are a function of content only: fingerprinting a
        # literal of another type first must not change the answer
        clear_memo()
        fresh = fingerprint(second)
        clear_memo()
        fingerprint(first)
        assert fingerprint(second) == fresh
        assert fingerprint(first) != fresh
        assert first != second

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(fingerprint_module, "FP_MEMO_MAX", 100)
        clear_memo()
        digests = [fingerprint(Lit(i)) for i in range(1000)]
        assert len(fingerprint_module._FP_MEMO) <= 100
        # a cleared memo recomputes the same digests
        assert [fingerprint(Lit(i)) for i in range(1000)] == digests


class TestSensitivity:
    def test_primitive_tags_are_distinct(self):
        assert len({fingerprint(v) for v in (1, 1.0, True, "1", b"1", None)}) == 6

    def test_container_kinds_are_distinct(self):
        assert fingerprint((1, 2)) != fingerprint(frozenset((1, 2)))
        assert fingerprint((1, 2)) != fingerprint((2, 1))
        assert fingerprint(frozenset((1, 2))) == fingerprint(frozenset((2, 1)))

    def test_context_changes_task_fingerprint(self):
        task = make_task()
        assert task_fingerprint(task, {"lo": 0, "hi": 1}) != task_fingerprint(
            task, {"lo": 0, "hi": 2}
        )
        assert task_fingerprint(task, {"lo": 0, "hi": 1}) != task_fingerprint(task)

    def test_combine_is_order_sensitive(self):
        assert combine("a", "b") != combine("b", "a")

    def test_domain_fingerprints_by_content(self):
        assert fingerprint(IntRange(0, 1)) == fingerprint(IntRange(0, 1))
        assert fingerprint(IntRange(0, 1)) != fingerprint(IntRange(0, 2))

    def test_every_single_node_edit_changes_the_root_hash(self):
        # the mutation battery: walk the task tree, mutate exactly one
        # primitive field per mutant, and require the root fingerprint
        # to move every time
        task = make_task()
        root = fingerprint(task)
        mutants = list(_mutations(task))
        assert len(mutants) >= 15, (
            "mutation battery degenerated: only %d mutants" % len(mutants)
        )
        for mutant in mutants:
            assert fingerprint(mutant) != root, (
                "single-node edit left the root fingerprint unchanged: %r"
                % (mutant,)
            )
        # and all mutants are pairwise distinct from each other as trees
        assert len({fingerprint(m) for m in mutants}) == len(mutants)


class TestConeTest:
    def test_changed_subtree_is_found_by_content(self):
        task = make_task()
        # a fresh parse is a different object with the same content
        for changed in (parse_command(CMD), fingerprint(task.command),
                        parse_assertion(PRE), parse_assertion(POST), task):
            assert cone_test([changed])((task,))

    def test_trees_without_the_subtree_are_outside(self):
        task = make_task()
        assert not cone_test([parse_command("l := h")])((task,))
        # inner nodes of a source are not the source's cone: the edit
        # names the replaced subtree, never what it contains
        assert not cone_test([task])((task.command,))

    def test_only_composite_nodes_name_a_cone(self):
        task = make_task()
        semantic = sem(lambda states: True)
        in_cone = cone_test([0, True, ("l",), semantic])
        assert not in_cone((task,))
        assert not in_cone((task.pre, task.post))


class TestFallback:
    def test_semantic_assertion_raises(self):
        semantic = sem(lambda states: True, label="always")
        with pytest.raises(FingerprintError):
            fingerprint(semantic)
        assert not fingerprintable(semantic)

    def test_semantic_task_raises(self):
        task = VerificationTask(
            pre=sem(lambda states: True),
            command=parse_command(CMD),
            post=parse_assertion(POST),
        )
        with pytest.raises(FingerprintError):
            task_fingerprint(task, {"lo": 0, "hi": 1})

    def test_syntactic_world_is_fingerprintable(self):
        assert fingerprintable(make_task())


def _mutations(node):
    """Every copy of ``node`` with exactly one primitive field edited,
    anywhere in the tree (the generic single-node edit enumerator)."""
    if not (is_dataclass(node) and not isinstance(node, type)):
        return
    for f in fields(node):
        value = getattr(node, f.name)
        for mutated in _field_mutations(value):
            try:
                yield replace(node, **{f.name: mutated})
            except (TypeError, ValueError):
                continue  # the mutant violates a constructor invariant


def _field_mutations(value):
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield value + 1
    elif isinstance(value, str):
        yield value + "_m"
    elif is_dataclass(value) and not isinstance(value, type):
        yield from _mutations(value)
    elif isinstance(value, tuple):
        for index, element in enumerate(value):
            for mutated in _field_mutations(element):
                yield value[:index] + (mutated,) + value[index + 1:]
