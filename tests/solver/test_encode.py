"""The hyper-assertion grounding: SAT verdicts must equal brute force."""

import gc
import itertools
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.assertions.entail import EntailmentOracle, entails
from repro.assertions.parser import parse_assertion
from repro.assertions.semantic import (
    TRUE_H,
    AndAssertion,
    NotAssertion,
    OrAssertion,
)
from repro.assertions.sugar import box, emp_s, gni, low, not_emp_s
from repro.assertions.syntax import (
    HBin,
    HFun,
    HLit,
    HLog,
    HProg,
    HVar,
    SAnd,
    SBool,
    SCmp,
    SExistsState,
    SExistsVal,
    SForallState,
    SForallVal,
    SOr,
    pv,
)
from repro.compile import compile_assertion
from repro.errors import EvaluationError
from repro.gen import GenConfig
from repro.gen.assertions import gen_assertion
from repro.lang.expr import V
from repro.checker import Universe
from repro.solver import encode
from repro.solver.cnf import CNF, _encode
from repro.solver.encode import (
    Unsupported,
    entails_sat,
    entailment_model,
    ground_assertion,
)
from repro.solver.formula import (
    FAnd,
    FFalse,
    FNot,
    FOr,
    FTrue,
    FVar,
    f_or,
    fand,
    fnot,
    fvar,
)
from repro.values import IntRange

from tests.strategies import hyper_assertions

UNI = Universe(["x", "y"], IntRange(0, 2))
STATES = UNI.ext_states()
D = UNI.domain


class TestGrounding:
    def test_box_grounds_to_implications(self):
        f = ground_assertion(box(V("x").eq(0)), STATES, D)
        # satisfiable (the empty set) but not valid
        from repro.solver.sat import solve_formula

        assert solve_formula(f) is not None

    def test_unsupported_semantic(self):
        with pytest.raises(Unsupported):
            ground_assertion(TRUE_H, STATES, D)

    def test_combinator_wrappers_ground(self):
        f = ground_assertion(low("x") & box(V("y").eq(0)), STATES, D)
        assert f is not None

    def test_negation_wrapper_grounds(self):
        from repro.assertions.semantic import NotAssertion

        f = ground_assertion(NotAssertion(emp_s), STATES, D)
        from repro.solver.sat import solve_formula

        assert solve_formula(f) is not None


class TestEntailmentAgreement:
    @given(hyper_assertions(max_depth=2), hyper_assertions(max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_sat_equals_brute(self, pre, post):
        small = Universe(["x", "y"], IntRange(0, 1))
        states = small.ext_states()
        assert entails_sat(pre, post, states, small.domain) == entails(
            pre, post, states, small.domain
        )

    def test_known_entailments(self):
        assert entails_sat(emp_s, low("x"), STATES, D)
        assert entails_sat(box(V("x").eq(1)), low("x"), STATES, D)
        assert not entails_sat(not_emp_s, low("x"), STATES, D)

    def test_model_is_real_counterexample(self):
        model = entailment_model(not_emp_s, low("x"), STATES, D)
        assert model is not None
        assert not_emp_s.holds(model, D)
        assert not low("x").holds(model, D)

    def test_model_none_when_entailed(self):
        assert entailment_model(emp_s, low("x"), STATES, D) is None

    def test_satisfiable_sat(self):
        """Satisfiability through SAT: a model of ``A ∧ ¬false``."""
        model = entailment_model(low("x"), SBool(False), STATES, D)
        assert model is not None and low("x").holds(model, D)
        assert entailment_model(emp_s & not_emp_s, SBool(False), STATES, D) is None


class TestScaling:
    def test_larger_universe_entailment(self):
        """27-state universe: 2^27 subsets — brute force is hopeless, the
        SAT encoding answers in milliseconds."""
        big = Universe(["x", "y", "z"], IntRange(0, 2))
        states = big.ext_states()
        assert len(states) == 27
        assert entails_sat(
            box(V("x").eq(0)) & box(V("y").eq(1)),
            low("x") & low("y"),
            states,
            big.domain,
        )
        assert not entails_sat(low("x"), low("y"), states, big.domain)


def reference_ground(node, universe, domain, sigma=None, delta=None, quotient=False):
    """Unmemoized grounding straight from the definitions: every binding
    of every quantifier grounds its body afresh, environments are copied
    per instantiation and comparisons run through the interpreter.

    With ``quotient=False`` a state quantifier expands over every state
    (``⋀_{u∈U} (¬m_u ∨ B[φ:=u])``), the plain formula the quotient must
    agree with on every set.  With ``quotient=True`` it expands over the
    classes of the universe under the body's reads of ``φ``, in order of
    first occurrence, at each class's first member and guarded by the
    class selector ``⋁_{u∈K} m_u`` — exactly the formula the
    projection-memoized grounder must build."""
    sigma = dict(sigma or {})
    delta = dict(delta or {})
    absent = object()

    def classes(node):
        if not quotient:
            return [[u] for u in universe]
        own = sorted(
            (r.var, isinstance(r, HProg))
            for r in node.body.free_reads()
            if r.state == node.state
        )
        groups = {}
        for u in universe:
            key = tuple(
                (u.prog if prog else u.log).get(var, absent) for var, prog in own
            )
            groups.setdefault(key, []).append(u)
        return list(groups.values())

    def go(node, sigma, delta):
        if isinstance(node, AndAssertion):
            return fand(*(go(p, sigma, delta) for p in node.parts))
        if isinstance(node, OrAssertion):
            return f_or(*(go(p, sigma, delta) for p in node.parts))
        if isinstance(node, NotAssertion):
            return fnot(go(node.operand, sigma, delta))
        if isinstance(node, SBool):
            return FTrue() if node.value else FFalse()
        if isinstance(node, SCmp):
            held = node.eval(frozenset(), sigma, delta, domain)
            return FTrue() if held else FFalse()
        if isinstance(node, SAnd):
            left = go(node.left, sigma, delta)
            if isinstance(left, FFalse):
                return left
            return fand(left, go(node.right, sigma, delta))
        if isinstance(node, SOr):
            left = go(node.left, sigma, delta)
            if isinstance(left, FTrue):
                return left
            return f_or(left, go(node.right, sigma, delta))
        if isinstance(node, (SForallVal, SExistsVal)):
            universal = isinstance(node, SForallVal)
            absorbing = FFalse if universal else FTrue
            parts = []
            for v in domain:
                part = go(node.body, sigma, dict(delta, **{node.var: v}))
                if isinstance(part, absorbing):
                    parts = [part]
                    break
                parts.append(part)
            return fand(*parts) if universal else f_or(*parts)
        if isinstance(node, (SForallState, SExistsState)):
            parts = []
            for members in classes(node):
                selector = f_or(*(fvar(("member", u)) for u in members))
                body = go(node.body, dict(sigma, **{node.state: members[0]}), delta)
                if isinstance(node, SForallState):
                    parts.append(f_or(fnot(selector), body))
                else:
                    parts.append(fand(selector, body))
            return fand(*parts) if isinstance(node, SForallState) else f_or(*parts)
        raise Unsupported("cannot ground %r" % (node,))

    return go(node, sigma, delta)


def truth_table(formula, universe):
    """The formula's value on every ``S ⊆ universe`` as one bit mask:
    bit ``b`` is its truth under ``m_u := (u ∈ S_b)``, where ``S_b``
    holds the ``i``-th state iff bit ``i`` of ``b`` is set."""
    subsets = 1 << len(universe)
    full = (1 << subsets) - 1
    atoms = {
        ("member", u): sum(1 << b for b in range(subsets) if b >> i & 1)
        for i, u in enumerate(universe)
    }
    seen = {}  # id(subformula) -> mask; the root keeps every id alive

    def go(f):
        mask = seen.get(id(f))
        if mask is not None:
            return mask
        if isinstance(f, FTrue):
            mask = full
        elif isinstance(f, FFalse):
            mask = 0
        elif isinstance(f, FVar):
            mask = atoms[f.name]
        elif isinstance(f, FNot):
            mask = full & ~go(f.operand)
        elif isinstance(f, FAnd):
            mask = full
            for part in f.parts:
                mask &= go(part)
        else:
            mask = 0
            for part in f.parts:
                mask |= go(part)
        seen[id(f)] = mask
        return mask

    return go(formula)


#: three state binders and two value binders over a 9-state universe:
#: deep enough for quantifier bodies that read only part of the bindings
MEMO_CONFIG = GenConfig(
    pvars=("x", "y"), lo=0, hi=2, state_names=("p", "q", "r"), max_assertion_depth=5
)
MEMO_UNI = Universe(["x", "y"], IntRange(0, 2))


class TestProjectionMemo:
    @given(st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_memo_is_exact(self, seed):
        """The memo changes no formula: the grounder builds exactly what
        the unmemoized quotient recursion builds."""
        assertion = gen_assertion(random.Random(seed), MEMO_CONFIG)
        states = MEMO_UNI.ext_states()
        grounded = ground_assertion(assertion, states, MEMO_UNI.domain)
        expected = reference_ground(assertion, states, MEMO_UNI.domain, quotient=True)
        assert grounded == expected
        assert repr(grounded) == repr(expected)

    def test_open_assertion_reads_the_supplied_environment(self):
        states = MEMO_UNI.ext_states()
        open_body = SExistsState(
            "q", SAnd(SCmp("==", pv("q", "x"), pv("p", "x")), SCmp("<", HVar("v"), pv("q", "y")))
        )
        for phi in states[:4]:
            for v in MEMO_UNI.domain:
                sigma, delta = {"p": phi}, {"v": v}
                grounded = ground_assertion(open_body, states, MEMO_UNI.domain, sigma, delta)
                assert grounded == reference_ground(
                    open_body, states, MEMO_UNI.domain, sigma, delta, quotient=True
                )
                assert truth_table(grounded, states) == truth_table(
                    reference_ground(open_body, states, MEMO_UNI.domain, sigma, delta),
                    states,
                )

    def test_unbound_reads_key_as_missing(self):
        """The inner ``∀⟨r⟩`` is memoized with an unbound state or a
        missing variable in its key, and ``∀⟨p⟩`` partitions on a missing
        variable: reading it still raises, and a body that never reads it
        (short-circuit) grounds exactly."""
        states = MEMO_UNI.ext_states()

        def nested(body):
            return SForallState("p", SForallState("r", body))

        with pytest.raises(EvaluationError):
            ground_assertion(
                nested(SCmp("==", pv("r", "x"), pv("q", "x"))), states, MEMO_UNI.domain
            )
        with pytest.raises(KeyError):
            ground_assertion(
                nested(SCmp("==", pv("p", "nope"), pv("r", "x"))), states, MEMO_UNI.domain
            )
        unread = nested(
            SAnd(SCmp("==", pv("r", "x"), HLit(5)), SCmp("==", pv("p", "nope"), HLit(0)))
        )
        assert ground_assertion(unread, states, MEMO_UNI.domain) == reference_ground(
            unread, states, MEMO_UNI.domain, quotient=True
        )

    def test_gni_witness_body_grounds_once_per_projection(self, monkeypatch):
        """On the 8-state h,l,y universe ``∀⟨φ1⟩`` has 2 classes (it reads
        ``h``), ``∀⟨φ2⟩`` has 2 (it reads ``l``), and ``∃⟨φ⟩``'s body is
        grounded at 4 class representatives (``h`` and ``l``) for each of
        the 4 outer projections: 2·2·4 groundings, not 8·8·8."""
        uni = Universe(["h", "l", "y"], IntRange(0, 1))
        states = uni.ext_states()
        assert len(states) == 8
        post = gni("h", "l")
        witness_body = post.body.body.body
        calls = []
        original = encode._Grounder._compile

        def counting(self, node):
            reads, values, make = original(self, node)
            if node is not witness_body:
                return reads, values, make

            def counted(width):
                run = make(width)

                def counted_run(sigma, delta):
                    calls.append(node)
                    return run(sigma, delta)

                return counted_run

            return reads, values, counted

        monkeypatch.setattr(encode._Grounder, "_compile", counting)
        grounded = ground_assertion(post, states, uni.domain)
        assert len(calls) == 2 * 2 * 4
        assert grounded == reference_ground(post, states, uni.domain, quotient=True)
        assert truth_table(grounded, states) == truth_table(
            reference_ground(post, states, uni.domain), states
        )


#: a 4-state universe next to the 9-state one: classes there are often
#: singletons or the whole universe
SMALL_CONFIG = GenConfig(
    pvars=("x", "y"), lo=0, hi=1, state_names=("p", "q", "r"), max_assertion_depth=5
)
SMALL_UNI = Universe(["x", "y"], IntRange(0, 1))


class TestQuotient:
    @pytest.mark.parametrize(
        "config, uni", [(MEMO_CONFIG, MEMO_UNI), (SMALL_CONFIG, SMALL_UNI)]
    )
    @given(seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_quotient_agrees_with_plain_on_every_subset(self, config, uni, seed):
        """The class form is exact: on every ``S ⊆ U`` (512 subsets of the
        9-state universe) it has the truth value of the per-state
        expansion."""
        assertion = gen_assertion(random.Random(seed), config)
        states = uni.ext_states()
        assert len(states) <= 10
        grounded = ground_assertion(assertion, states, uni.domain)
        plain = reference_ground(assertion, states, uni.domain)
        assert truth_table(grounded, states) == truth_table(plain, states)

    def test_selectors_are_shared(self):
        """Each class selector is one formula object, whichever
        quantifier node uses it."""
        states = MEMO_UNI.ext_states()
        grounded = ground_assertion(low("x") & low("x"), states, MEMO_UNI.domain)
        selectors = [
            part.operand
            for part in _subformulas(grounded)
            if isinstance(part, FNot) and isinstance(part.operand, FOr)
        ]
        assert len(selectors) >= 2
        assert len({id(s) for s in selectors}) == len(MEMO_UNI.domain)

    def test_sat_oracle_counterexample_on_quotiented_refutation(self):
        """A ``sat`` oracle decodes a real counterexample set from a model
        of the quotiented query: class selectors are disjunctions of
        membership atoms, so the model is still a set of states."""
        uni = Universe(["h", "l", "y"], IntRange(0, 1))
        states = uni.ext_states()
        oracle = EntailmentOracle(states, uni.domain, method="sat")
        post = gni("h", "l")
        assert not oracle.entails(not_emp_s, post)
        cex = oracle.find_counterexample(not_emp_s, post)
        assert cex is not None
        assert not_emp_s.holds(cex, uni.domain)
        assert not post.holds(cex, uni.domain)



def _raised(thunk):
    """``(type, str)`` of what ``thunk()`` raises."""
    with pytest.raises(Exception) as info:
        thunk()
    return type(info.value), str(info.value)


class TestErrorParity:
    """Grounding fails where evaluating the assertion fails, with the
    same exception type and message as the Def. 12 interpreter
    (``reference_ground`` runs ``SCmp.eval``), in the same order: an
    unknown comparison is reported before either operand is read."""

    @staticmethod
    def _at(body):
        return SForallState("a", SExistsVal("v", body))

    CASES = [
        (_at(SCmp("==", pv("a", "x"), pv("b", "x"))), EvaluationError,
         "unbound state variable 'b'"),
        (_at(SCmp("==", pv("a", "x"), HVar("w"))), EvaluationError,
         "unbound value variable 'w'"),
        (_at(SCmp("==", pv("a", "nope"), HVar("v"))), KeyError, "'nope'"),
        (_at(SCmp("==", HLog("a", "t"), HVar("v"))), KeyError, "'t'"),
        (_at(SCmp("~~", pv("a", "x"), HVar("v"))), EvaluationError,
         "unknown comparison '~~'"),
        (_at(SCmp("==", HBin("??", pv("a", "nope"), HLit(1)), HVar("v"))),
         EvaluationError, "unknown binary operator '??'"),
        (_at(SCmp("==", HFun("nope", (pv("a", "x"),)), HVar("v"))),
         EvaluationError, "unknown function 'nope'"),
        # operands are read left to right
        (_at(SCmp("==", HFun("max", (HVar("w"), pv("a", "nope"))), HLit(0))),
         EvaluationError, "unbound value variable 'w'"),
        # no quantifier at all
        (SCmp("==", pv("a", "x"), HLit(0)), EvaluationError,
         "unbound state variable 'a'"),
        # a missing variable read only by a later conjunct
        (SForallState("a", SAnd(SCmp(">=", pv("a", "x"), HLit(0)),
                                SCmp("==", pv("a", "nope"), HLit(0)))),
         KeyError, "'nope'"),
    ]

    @pytest.mark.parametrize("assertion, kind, message", CASES)
    def test_same_error_as_the_interpreter(self, assertion, kind, message):
        states = UNI.ext_states()
        expected = (kind, message)
        assert _raised(lambda: reference_ground(assertion, states, D)) == expected
        assert _raised(lambda: ground_assertion(assertion, states, D)) == expected

    def test_an_unknown_comparison_is_reported_before_its_operands(self):
        assertion = self._at(SCmp("~~", pv("a", "nope"), pv("b", "x")))
        expected = (EvaluationError, "unknown comparison '~~'")
        assert _raised(lambda: reference_ground(assertion, STATES, D)) == expected
        assert _raised(lambda: ground_assertion(assertion, STATES, D)) == expected
        compiled = compile_assertion(assertion, D)
        assert _raised(lambda: compiled.holds(frozenset(STATES))) == expected

    @pytest.mark.parametrize("assertion, kind, message", CASES)
    def test_incremental_oracle_raises_it_and_recovers(self, assertion, kind, message):
        oracle = encode.IncrementalEntailment(UNI.ext_states(), D)
        assert _raised(lambda: oracle.entails(assertion, SBool(True))) == (kind, message)
        assert _raised(lambda: oracle.entails(SBool(True), assertion)) == (kind, message)
        # a failed pass leaves nothing behind that changes the next one
        assert oracle.entails(box(V("x").eq(0)), low("x"))
        assert not oracle.entails(not_emp_s, low("x"))

    def test_unsupported_operand(self):
        expected = (Unsupported, "cannot ground %r" % (TRUE_H,))
        assert _raised(lambda: ground_assertion(TRUE_H, STATES, D)) == expected
        wrapped = AndAssertion(low("x"), TRUE_H)
        assert _raised(lambda: ground_assertion(wrapped, STATES, D)) == expected


GNI_PRE = "forall <a>, <b>. a(l) == b(l)"
GNI_PROG = "y := nonDet(); l := h xor y"
GNI_POST = "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"


class TestLifetime:
    def test_dropped_session_frees_its_universe_states(self):
        """Grounding state (partition classes, slot vectors) lives on the
        session's oracle, not in a module-level cache: once the session
        is gone, nothing keeps its universe's states alive."""
        session = repro.Session(["h", "l", "y"], 0, 1, entailment="sat")
        assert session.verify(GNI_PRE, GNI_PROG, GNI_POST).verdict is True
        backend = session.oracle._incremental
        assert backend is not None and backend.queries >= 1
        state = weakref.ref(backend.universe[3])
        del session, backend
        gc.collect()
        assert state() is None


#: Grounds hyper-sat's GNI posts, their wp under its programs and
#: generated assertions on one incremental oracle, then prints a digest
#: of every formula's repr and of the CNF clauses they encode to.
DIGEST_SCRIPT = """
import hashlib, random
from repro.assertions.parser import parse_assertion
from repro.checker import Universe
from repro.gen import GenConfig
from repro.gen.assertions import gen_assertion
from repro.lang.parser import parse_command
from repro.logic.outline import wp_syntactic
from repro.solver import encode
from repro.solver.cnf import CNF, _encode
from repro.values import IntRange

posts = [parse_assertion(text) for text in (
    "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)",
    "forall <f>, <g>. exists <k>. k(l) == g(l) && k(h) == f(h)",
    "exists <a>, <b>. forall <c>. c(h) != a(h) || c(l) != b(l)",
    "exists <s>, <t>. forall <u>. u(l) != t(l) || u(h) != s(h)",
)]
programs = ["y := nonDet(); l := h xor y", "y := nonDet(); l := max(l, y)",
            "y := nonDet(); assume y <= 1; l := h + y"]
corpus = posts + [wp_syntactic(parse_command(c), p) for c in programs for p in posts]
config = GenConfig(pvars=("h", "l", "y"), lo=0, hi=1,
                   state_names=("p", "q", "r"), max_assertion_depth=4)
corpus += [gen_assertion(random.Random(i), config) for i in range(60)]
uni = Universe(["h", "l", "y"], IntRange(0, 1))
oracle = encode.IncrementalEntailment(uni.ext_states(), uni.domain)
digest, cnf = hashlib.sha256(), CNF()
for assertion in corpus:
    try:
        formula = oracle._ground(assertion)
    except Exception as error:
        digest.update(repr(error).encode())
        continue
    digest.update(repr(formula).encode())
    digest.update(repr(_encode(formula, cnf)).encode())
digest.update(repr(cnf.clauses).encode())
print(len(corpus), digest.hexdigest())
"""


class TestDeterminism:
    def test_grounding_does_not_depend_on_the_hash_seed(self):
        """Slot, class and formula order must not follow set iteration
        order, which changes with ``PYTHONHASHSEED``: CNF variable
        numbering and so SAT models and witnesses would follow it."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", DIGEST_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1
        assert outputs.pop().split()[0] == "76"  # the script ran over the whole corpus


class TestOneEncoder:
    """The incremental oracle Tseitin-encodes through ``solver/cnf.py``
    only: a second encoder (or a second copy of the clauses) shows up as
    a clause stream that differs from ``_encode``'s."""

    POOL = (
        "forall <a>. a(x) >= 0",
        "exists <a>. a(x) == a(y)",
        "forall <a>. exists <b>. b(x) == a(y)",
        "exists <a>. exists <b>. a(x) != b(x)",
        "forall v. exists <a>. a(x) == v",
        "true",
        "false",
    )

    def _recording_oracle(self, monkeypatch):
        uni = Universe(["x", "y"], IntRange(0, 1))
        states = tuple(sorted(uni.ext_states(), key=repr))
        oracle = encode.IncrementalEntailment(states, uni.domain)
        solver = oracle._solver
        received, roots = [], []
        add_clause, solve = solver.add_clause, solver.solve

        def recording_add(lits):
            received.append(tuple(lits))
            return add_clause(lits)

        def recording_solve(assumptions=(), **kwargs):
            roots.append(tuple(assumptions))
            return solve(assumptions, **kwargs)

        monkeypatch.setattr(solver, "add_clause", recording_add)
        monkeypatch.setattr(solver, "solve", recording_solve)
        return oracle, received, roots

    def test_solver_receives_the_cnf_encoding_in_order(self, monkeypatch):
        oracle, received, roots = self._recording_oracle(monkeypatch)
        pool = [parse_assertion(text) for text in self.POOL]
        rng = random.Random(5)
        queries = [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
        for pre, post in queries:
            assert oracle.entails(pre, post) == entails_sat(
                pre, post, oracle.universe, oracle.domain
            )

        atom = encode._interned_atom(oracle.universe)
        reference = CNF()
        expected_roots = []
        for pre, post in queries:
            query = fand(
                ground_assertion(pre, oracle.universe, oracle.domain, atom=atom),
                fnot(ground_assertion(post, oracle.universe, oracle.domain, atom=atom)),
            )
            expected_roots.append((_encode(query, reference),))
        assert received == reference.clauses
        assert roots == expected_roots
        assert oracle._cnf.clauses == []  # handed over, not kept
        assert oracle._cnf.num_vars == reference.num_vars

    def test_repeated_pre_adds_no_definitions(self, monkeypatch):
        oracle, received, _ = self._recording_oracle(monkeypatch)
        pre, first, second = (parse_assertion(self.POOL[i]) for i in (2, 1, 3))
        oracle.entails(pre, first)
        seen_vars = oracle._cnf.num_vars
        del received[:]
        oracle.entails(pre, second)
        # every clause the second query adds defines a variable it allocated
        assert received
        assert all(any(abs(l) > seen_vars for l in c) for c in received)
        del received[:]
        oracle.entails(pre, second)
        assert received == []  # an exact repeat encodes nothing


class TestLeastModel:
    """``least_model`` is the least refuting set whatever the solver's
    history: pinned against brute enumeration in universe order."""

    @staticmethod
    def brute_least(pre, post, states, domain):
        for bits in itertools.product((False, True), repeat=len(states)):
            chosen = frozenset(u for u, b in zip(states, bits) if b)
            if pre.holds(chosen, domain) and not post.holds(chosen, domain):
                return chosen
        return None

    def test_equals_brute_least_after_any_history(self):
        uni = Universe(["x", "y"], IntRange(0, 1))
        states = tuple(sorted(uni.ext_states(), key=repr))
        pool = [parse_assertion(text) for text in TestOneEncoder.POOL]
        rng = random.Random(11)
        queries = [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
        warm = encode.IncrementalEntailment(states, uni.domain)
        refuted = 0
        for pre, post in queries:
            expected = self.brute_least(pre, post, states, uni.domain)
            # right after the query's own failing solve, and cold
            assert warm.entails(pre, post) == (expected is None)
            assert warm.least_model(pre, post) == expected
            cold = encode.IncrementalEntailment(states, uni.domain)
            assert cold.least_model(pre, post) == expected
            refuted += expected is not None
        assert refuted >= 15


def _subformulas(formula):
    """Every subformula occurrence, parents before children."""
    out, stack = [], [formula]
    while stack:
        f = stack.pop()
        out.append(f)
        if isinstance(f, FNot):
            stack.append(f.operand)
        elif isinstance(f, (FAnd, FOr)):
            stack.extend(f.parts)
    return out
