"""Wire codecs for every first-class result object.

One registration per kind; see :mod:`repro.codec.wire` for the document
format and versioning contract.  The encodings are *structural* where
text would be lossy: syntactic assertions encode as expression trees
(the wp calculus produces operators like ``xor`` that have no concrete
assertion syntax), while commands — whose printer/parser round-trip is
exact and property-tested — ship as concrete syntax.

Registered kinds:

========================= ==================================================
``assertion``             :class:`~repro.assertions.syntax.SynAssertion`
``command``               :class:`~repro.lang.ast.Command` (concrete syntax)
``ext-state``             :class:`~repro.semantics.state.ExtState`
``witness``               :class:`~repro.checker.counterexample.Witness`
``judgment-triple``       :class:`~repro.logic.judgment.Triple`
``proof``                 :class:`~repro.logic.judgment.ProofNode`
``task``                  :class:`~repro.api.task.VerificationTask`
``proved`` / ``refuted`` / ``undecided``
                          the :mod:`~repro.api.outcome` algebra
``task-result``           :class:`~repro.api.session.TaskResult`
``report``                :class:`~repro.api.session.Report`
``gen-triple``            :class:`~repro.gen.triples.Triple`
``trial``                 :class:`~repro.gen.triples.Trial`
``disagreement``          :class:`~repro.conformance.differential.Disagreement`
``trial-outcome``         :class:`~repro.conformance.differential.TrialOutcome`
``fuzz-report``           :class:`~repro.conformance.harness.FuzzReport`
========================= ==================================================
"""

from ..api.outcome import Proved, Refuted, Undecided
from ..api.session import Report, TaskResult
from ..api.task import VerificationTask
from ..assertions.base import Assertion
from ..assertions.syntax import (
    HBin,
    HFun,
    HLit,
    HLog,
    HProg,
    HTupleE,
    HVar,
    SAnd,
    SBool,
    SCmp,
    SExistsState,
    SExistsVal,
    SForallState,
    SForallVal,
    SOr,
    SynAssertion,
)
from ..checker.counterexample import Witness
from ..conformance.differential import Disagreement, TrialOutcome
from ..conformance.harness import FuzzReport
from ..gen.triples import Trial, Triple as GenTriple
from ..lang.ast import Command
from ..lang.parser import parse_command
from ..lang.printer import pretty
from ..logic.judgment import ProofNode, Triple as JudgmentTriple
from ..semantics.state import ExtState, State
from .wire import WireError, decode, encode, register


# ---------------------------------------------------------------------------
# values (ints, bools, tuples) — shared by literals and state bindings
# ---------------------------------------------------------------------------

def _enc_value(value):
    # bool first: it is an int subclass but must survive as a bool
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"$tuple": [_enc_value(v) for v in value]}
    raise WireError("no wire encoding for value %r" % (value,))


def _dec_value(value):
    if isinstance(value, dict):
        return tuple(_dec_value(v) for v in value["$tuple"])
    if isinstance(value, list):  # a JSON round-trip can only produce $tuple
        raise WireError("bare list is not a wire value: %r" % (value,))
    return value


# ---------------------------------------------------------------------------
# assertions — structural trees (text would be lossy: wp-produced
# operators like ``xor`` have no concrete assertion syntax)
# ---------------------------------------------------------------------------

def _enc_expr(expr):
    if isinstance(expr, HLit):
        return ["lit", _enc_value(expr.value)]
    if isinstance(expr, HVar):
        return ["var", expr.name]
    if isinstance(expr, HProg):
        return ["pvar", expr.state, expr.var]
    if isinstance(expr, HLog):
        return ["lvar", expr.state, expr.var]
    if isinstance(expr, HBin):
        return ["bin", expr.op, _enc_expr(expr.left), _enc_expr(expr.right)]
    if isinstance(expr, HFun):
        return ["fun", expr.name, [_enc_expr(a) for a in expr.args]]
    if isinstance(expr, HTupleE):
        return ["tuple", [_enc_expr(i) for i in expr.items]]
    raise WireError("no wire encoding for hyper-expression %r" % (expr,))


def _dec_expr(tree):
    tag = tree[0]
    if tag == "lit":
        return HLit(_dec_value(tree[1]))
    if tag == "var":
        return HVar(tree[1])
    if tag == "pvar":
        return HProg(tree[1], tree[2])
    if tag == "lvar":
        return HLog(tree[1], tree[2])
    if tag == "bin":
        return HBin(tree[1], _dec_expr(tree[2]), _dec_expr(tree[3]))
    if tag == "fun":
        return HFun(tree[1], tuple(_dec_expr(a) for a in tree[2]))
    if tag == "tuple":
        return HTupleE(tuple(_dec_expr(i) for i in tree[1]))
    raise WireError("unknown expression tag %r" % (tag,))


def _enc_assertion_tree(a):
    if isinstance(a, SBool):
        return ["bool", a.value]
    if isinstance(a, SCmp):
        return ["cmp", a.op, _enc_expr(a.left), _enc_expr(a.right)]
    if isinstance(a, SAnd):
        return ["and", _enc_assertion_tree(a.left), _enc_assertion_tree(a.right)]
    if isinstance(a, SOr):
        return ["or", _enc_assertion_tree(a.left), _enc_assertion_tree(a.right)]
    if isinstance(a, SForallVal):
        return ["forall-val", a.var, _enc_assertion_tree(a.body)]
    if isinstance(a, SExistsVal):
        return ["exists-val", a.var, _enc_assertion_tree(a.body)]
    if isinstance(a, SForallState):
        return ["forall-state", a.state, _enc_assertion_tree(a.body)]
    if isinstance(a, SExistsState):
        return ["exists-state", a.state, _enc_assertion_tree(a.body)]
    raise WireError("no wire encoding for assertion node %r" % (a,))


def _dec_assertion_tree(tree):
    tag = tree[0]
    if tag == "bool":
        return SBool(tree[1])
    if tag == "cmp":
        return SCmp(tree[1], _dec_expr(tree[2]), _dec_expr(tree[3]))
    if tag == "and":
        return SAnd(_dec_assertion_tree(tree[1]), _dec_assertion_tree(tree[2]))
    if tag == "or":
        return SOr(_dec_assertion_tree(tree[1]), _dec_assertion_tree(tree[2]))
    if tag == "forall-val":
        return SForallVal(tree[1], _dec_assertion_tree(tree[2]))
    if tag == "exists-val":
        return SExistsVal(tree[1], _dec_assertion_tree(tree[2]))
    if tag == "forall-state":
        return SForallState(tree[1], _dec_assertion_tree(tree[2]))
    if tag == "exists-state":
        return SExistsState(tree[1], _dec_assertion_tree(tree[2]))
    raise WireError("unknown assertion tag %r" % (tag,))


register(
    "assertion",
    SynAssertion,
    lambda a: {"tree": _enc_assertion_tree(a)},
    lambda node: _dec_assertion_tree(node["tree"]),
)


def _reject_semantic(assertion):
    raise WireError(
        "%s is a semantic assertion (wraps a Python callable) and is not "
        "wire-serializable; only syntactic (Def. 9) assertions have a "
        "stable encoding" % type(assertion).__name__
    )


# Semantic assertion wrappers reach the Assertion base in MRO dispatch;
# fail with a targeted message instead of the generic "no codec".
register("assertion-rejected", Assertion, _reject_semantic, None)


def _enc_optional(obj):
    return None if obj is None else encode(obj)


def _dec_optional(node):
    return None if node is None else decode(node)


# ---------------------------------------------------------------------------
# commands — concrete syntax (round-trip is exact and property-tested)
# ---------------------------------------------------------------------------

register(
    "command",
    Command,
    lambda c: {"text": pretty(c)},
    lambda node: parse_command(node["text"]),
)


# ---------------------------------------------------------------------------
# states and witnesses
# ---------------------------------------------------------------------------

def _enc_state(state):
    return {name: _enc_value(value) for name, value in state.items()}


def _dec_state(mapping):
    return State({name: _dec_value(value) for name, value in mapping.items()})


register(
    "ext-state",
    ExtState,
    lambda phi: {"log": _enc_state(phi.log), "prog": _enc_state(phi.prog)},
    lambda node: ExtState(_dec_state(node["log"]), _dec_state(node["prog"])),
)


def _enc_state_set(states):
    return [encode(phi) for phi in sorted(states, key=repr)]


def _dec_state_set(nodes):
    return frozenset(decode(n) for n in nodes)


register(
    "witness",
    Witness,
    lambda w: {
        "pre_set": _enc_state_set(w.pre_set),
        "post_set": _enc_state_set(w.post_set),
    },
    lambda node: Witness(
        _dec_state_set(node["pre_set"]), _dec_state_set(node["post_set"])
    ),
)


# ---------------------------------------------------------------------------
# judgments and proofs
# ---------------------------------------------------------------------------

register(
    "judgment-triple",
    JudgmentTriple,
    lambda t: {
        "pre": encode(t.pre),
        "command": encode(t.command),
        "post": encode(t.post),
        "terminating": t.terminating,
    },
    lambda node: JudgmentTriple(
        decode(node["pre"]),
        decode(node["command"]),
        decode(node["post"]),
        terminating=node["terminating"],
    ),
)

register(
    "proof",
    ProofNode,
    lambda p: {
        "rule": p.rule,
        "triple": encode(p.triple),
        "premises": [encode(q) for q in p.premises],
        "assumptions": list(p.assumptions),
        "note": p.note,
    },
    lambda node: ProofNode(
        node["rule"],
        decode(node["triple"]),
        premises=tuple(decode(q) for q in node["premises"]),
        assumptions=tuple(node["assumptions"]),
        note=node["note"],
    ),
)


# ---------------------------------------------------------------------------
# tasks, outcomes, results, reports
# ---------------------------------------------------------------------------

register(
    "task",
    VerificationTask,
    lambda t: {
        "pre": encode(t.pre),
        "command": encode(t.command),
        "post": encode(t.post),
        "invariant": _enc_optional(t.invariant),
        "label": t.label,
    },
    lambda node: VerificationTask(
        pre=decode(node["pre"]),
        command=decode(node["command"]),
        post=decode(node["post"]),
        invariant=_dec_optional(node["invariant"]),
        label=node["label"],
    ),
)


def _enc_outcome_base(o):
    return {
        "backend": o.backend,
        "method": o.method,
        "elapsed": o.elapsed,
        "note": o.note,
    }


register(
    "proved",
    Proved,
    lambda o: dict(
        _enc_outcome_base(o),
        proof=_enc_optional(o.proof),
        assumptions=list(o.assumptions),
    ),
    lambda node: Proved(
        node["backend"],
        node["method"],
        elapsed=node["elapsed"],
        note=node["note"],
        proof=_dec_optional(node["proof"]),
        assumptions=tuple(node["assumptions"]),
    ),
)

register(
    "refuted",
    Refuted,
    lambda o: dict(_enc_outcome_base(o), witness=_enc_optional(o.witness)),
    lambda node: Refuted(
        node["backend"],
        node["method"],
        elapsed=node["elapsed"],
        note=node["note"],
        witness=_dec_optional(node["witness"]),
    ),
)

register(
    "undecided",
    Undecided,
    lambda o: dict(_enc_outcome_base(o), reason=o.reason),
    lambda node: Undecided(
        node["backend"],
        node["method"],
        elapsed=node["elapsed"],
        note=node["note"],
        reason=node["reason"],
    ),
)

register(
    "task-result",
    TaskResult,
    lambda r: {
        "task": encode(r.task),
        "outcomes": [encode(o) for o in r.outcomes],
    },
    lambda node: TaskResult(
        decode(node["task"]), tuple(decode(o) for o in node["outcomes"])
    ),
)

register(
    "report",
    Report,
    lambda r: {
        "results": [encode(x) for x in r.results],
        "elapsed": r.elapsed,
        "counters": dict(r.counters),
    },
    lambda node: Report(
        tuple(decode(x) for x in node["results"]),
        elapsed=node["elapsed"],
        counters=dict(node["counters"]),
    ),
)


# ---------------------------------------------------------------------------
# generated workloads and conformance results
# ---------------------------------------------------------------------------

register(
    "gen-triple",
    GenTriple,
    lambda t: {
        "pre": encode(t.pre),
        "command": encode(t.command),
        "post": encode(t.post),
        "invariant": _enc_optional(t.invariant),
    },
    lambda node: GenTriple(
        decode(node["pre"]),
        decode(node["command"]),
        decode(node["post"]),
        _dec_optional(node["invariant"]),
    ),
)

register(
    "trial",
    Trial,
    lambda t: {"seed": t.seed, "index": t.index, "triple": encode(t.triple)},
    lambda node: Trial(node["seed"], node["index"], decode(node["triple"])),
)

register(
    "disagreement",
    Disagreement,
    lambda d: {
        "check": d.kind,
        "detail": d.detail,
        "trial_seed": d.trial_seed,
        "trial_index": d.trial_index,
        "reproducer": encode(d.reproducer),
    },
    lambda node: Disagreement(
        node["check"],
        node["detail"],
        node["trial_seed"],
        node["trial_index"],
        decode(node["reproducer"]),
    ),
)

register(
    "trial-outcome",
    TrialOutcome,
    lambda o: {
        "trial": encode(o.trial),
        "oracle_valid": o.oracle_valid,
        "checks": list(o.checks),
        "disagreements": [encode(d) for d in o.disagreements],
    },
    lambda node: TrialOutcome(
        decode(node["trial"]),
        node["oracle_valid"],
        tuple(node["checks"]),
        tuple(decode(d) for d in node["disagreements"]),
    ),
)

register(
    "fuzz-report",
    FuzzReport,
    lambda r: {
        "seed": r.seed,
        "count": r.count,
        "outcomes": [encode(o) for o in r.outcomes],
        "elapsed": r.elapsed,
        "shards": r.shards,
    },
    lambda node: FuzzReport(
        seed=node["seed"],
        count=node["count"],
        outcomes=tuple(decode(o) for o in node["outcomes"]),
        elapsed=node["elapsed"],
        shards=node["shards"],
    ),
)
