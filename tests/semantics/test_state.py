"""Program and extended states: immutability, equality, updates."""

import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.semantics.state import ExtState, State, ext_state
from repro.solver.formula import FAnd, FOr, fvar

values = st.dictionaries(st.sampled_from("xyzw"), st.integers(0, 5), max_size=4)


class TestState:
    def test_lookup(self):
        s = State({"x": 1})
        assert s["x"] == 1
        assert s.get("y") is None
        assert s.get("y", 7) == 7
        with pytest.raises(KeyError):
            s["y"]

    def test_set_returns_new(self):
        s = State({"x": 1})
        s2 = s.set("x", 2)
        assert s["x"] == 1 and s2["x"] == 2
        assert s != s2

    def test_set_many(self):
        s = State({"x": 1}).set_many({"y": 2, "z": 3})
        assert s["y"] == 2 and s["z"] == 3

    def test_drop_restrict(self):
        s = State({"x": 1, "y": 2})
        assert "x" not in s.drop("x")
        assert s.restrict({"y"}).vars == ("y",)

    def test_vars_sorted(self):
        assert State({"b": 1, "a": 2}).vars == ("a", "b")

    def test_copy_constructor(self):
        s = State({"x": 1})
        assert State(s) == s

    @given(values)
    def test_equality_and_hash_agree(self, mapping):
        a, b = State(mapping), State(dict(mapping))
        assert a == b and hash(a) == hash(b)

    @given(values, st.sampled_from("xyzw"), st.integers(0, 5))
    def test_set_then_get(self, mapping, var, value):
        assert State(mapping).set(var, value)[var] == value

    def test_membership_and_len(self):
        s = State({"x": 1, "y": 2})
        assert "x" in s and "q" not in s
        assert len(s) == 2
        assert sorted(s) == ["x", "y"]

    def test_frozenset_usable(self):
        a = State({"x": 1})
        b = State({"x": 1})
        assert len({a, b}) == 1


class TestExtState:
    def test_accessors(self):
        phi = ext_state({"t": 1}, {"x": 2})
        assert phi.lvar("t") == 1
        assert phi.pvar("x") == 2

    def test_updates_are_functional(self):
        phi = ext_state({"t": 1}, {"x": 2})
        phi2 = phi.set_pvar("x", 9)
        phi3 = phi.set_lvar("t", 9)
        assert phi.pvar("x") == 2 and phi2.pvar("x") == 9
        assert phi.lvar("t") == 1 and phi3.lvar("t") == 9
        assert phi2.log == phi.log
        assert phi3.prog == phi.prog

    def test_with_prog_with_log(self):
        phi = ext_state({"t": 1}, {"x": 2})
        new_prog = State({"x": 5})
        assert phi.with_prog(new_prog).prog == new_prog
        new_log = State({"t": 5})
        assert phi.with_log(new_log).log == new_log

    @given(values, values)
    def test_equality(self, log, prog):
        assert ExtState(State(log), State(prog)) == ExtState(State(log), State(prog))


# Builds one object of each class that caches its hash, hashing each so
# the cache is filled before pickling.
_SAMPLES = """
from repro.semantics.state import ext_state
from repro.solver.formula import FAnd, FOr, fvar
phi = ext_state({"t": 1}, {"h": 1, "l": 0})
atoms = (fvar(("member", phi)), fvar("x"))
samples = [phi, phi.prog, FAnd(atoms), FOr(atoms)]
for sample in samples:
    hash(sample)
"""


def _run(hash_seed, script, stdin=b""):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        stdout=subprocess.PIPE,
        env=env,
        check=True,
    ).stdout


class TestCachedHashesAcrossProcesses:
    def test_unpickled_objects_hash_like_fresh_ones(self):
        """``str`` hashes are seeded per interpreter: an object pickled in
        one process and loaded in another must not keep the hash it
        cached there, or it is ``==`` to a fresh copy yet not found in a
        set holding one (spawned workers pickle results back)."""
        blob = _run(
            1, _SAMPLES + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(samples))"
        )
        verdicts = _run(
            2,
            _SAMPLES
            + "import json, pickle, sys\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "print(json.dumps([[x == y, x in {y}] for x, y in zip(loaded, samples)]))",
            stdin=blob,
        )
        assert json.loads(verdicts) == [[True, True]] * 4

    def test_pickle_round_trip_in_process(self):
        phi = ext_state({"t": 1}, {"h": 1, "l": 0})
        atoms = (fvar(("member", phi)), fvar("x"))
        for sample in (phi, phi.prog, State({"b": 1, "a": 2}), FAnd(atoms), FOr(atoms)):
            hash(sample)
            loaded = pickle.loads(pickle.dumps(sample))
            assert loaded == sample and hash(loaded) == hash(sample)
            assert type(loaded) is type(sample)
        assert list(pickle.loads(pickle.dumps(State({"b": 1, "a": 2})))) == ["b", "a"]
