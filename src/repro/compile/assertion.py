"""Compiled hyper-assertion evaluators: whole-set closures + incremental
push/pop evaluation.

The Def. 5 oracle asks the *same* assertion about an exponential family
of candidate sets that the engine enumerates by extending a prefix one
state at a time.  This module compiles an :class:`~repro.assertions.base.
Assertion` once into a :class:`CompiledAssertion` offering two modes:

- **whole-set**: ``holds(S)`` through closures — syntactic (Def. 9)
  assertions become one closure per tree (no per-node ``eval`` dispatch,
  no per-binding environment copies: quantifiers mutate one shared
  environment dict and restore it on exit);
- **incremental**: ``evaluator()`` returns a :class:`SetEvaluator` with
  ``push(φ)`` / ``push_many(φs)`` / ``pop()`` / ``value()`` so the
  engine decides each candidate set in ``O(Δ)`` work as the enumeration
  extends a prefix by one state, instead of re-walking the assertion
  over the whole set.

Incremental evaluation is *compositional*: boolean structure, finite
value quantifiers (sunk into the compiled body, or expanded over the
domain), per-state predicates, cardinality forms, set comparisons, and
**single same-polarity blocks of state quantifiers** (a ``∀…∀`` /
``∃…∃`` run is one quantifier over tuples — ``low``, ``box``,
agreement assertions — and is monotone once decided, enabling
short-circuit deferral) maintain journaled counters under push/pop.
Forms that are genuinely non-monotone — alternating quantifier blocks
like GNI's ``∀∀∃``, where one added state can flip the verdict either
way, opaque semantic predicates, the set-splitting operators (``⊗``,
``⨂``, ``⊑``/``⊒``) — fall back to compiled whole-set evaluation *with
the reason recorded* on :attr:`CompiledAssertion.fallback_reasons` (and
counted per reason by the owning
:class:`~repro.compile.cache.CompileCache`), never silently.

Verdict parity is absolute: for every set the evaluator's ``value()``
equals the interpreted ``assertion.holds(S, domain)`` — the engine's
enumeration order, verdicts and witnesses are byte-identical to the
interpreted naive reference, which the differential fuzz harness
re-checks on every trial (``engine-vs-naive``).
"""

from itertools import product

from ..assertions.base import Assertion
from ..assertions.semantic import (
    AndAssertion,
    Cardinality,
    ContainsState,
    EqualsSet,
    ExistsStates,
    ExistsValue,
    FALSE_H,
    ForallStates,
    ForallValue,
    NotAssertion,
    OrAssertion,
    SemAssertion,
    SubsetOf,
    SupersetOf,
    TRUE_H,
)
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
from ..errors import EvaluationError
from ..lang import expr as _pe
from .cache import default_cache
from .hyper import compile_cmp, compile_hexpr

_FORALL = 0
_EXISTS = 1

_EMPTY_SET = frozenset()
_MISSING = object()

#: Cap on the number of instantiations produced by expanding value
#: quantifiers over the domain; beyond it the subtree falls back to
#: whole-set evaluation (recorded, like every fallback).
EXPANSION_LIMIT = 256


# ---------------------------------------------------------------------------
# whole-set closures
# ---------------------------------------------------------------------------


def _compile_syn(node, values):
    """Compile a Def. 9 assertion to ``(S, sigma, delta) -> bool``.

    ``sigma``/``delta`` are *mutable* dicts owned by the caller;
    quantifiers bind by mutation and restore on exit, so one environment
    pair serves the whole evaluation (the interpreter copies per
    binding).  Iteration orders match the interpreter exactly: state
    quantifiers walk the same frozenset, value quantifiers walk the
    domain in its declared order.
    """
    t = type(node)
    if t is SBool:
        value = node.value
        return lambda S, sigma, delta: value
    if t is SCmp:
        fn, left, right = compile_cmp(
            node.op, compile_hexpr(node.left), compile_hexpr(node.right)
        )
        return lambda S, sigma, delta: fn(left(sigma, delta), right(sigma, delta))
    if t is SAnd:
        left = _compile_syn(node.left, values)
        right = _compile_syn(node.right, values)
        return lambda S, sigma, delta: left(S, sigma, delta) and right(
            S, sigma, delta
        )
    if t is SOr:
        left = _compile_syn(node.left, values)
        right = _compile_syn(node.right, values)
        return lambda S, sigma, delta: left(S, sigma, delta) or right(
            S, sigma, delta
        )
    if t is SForallVal or t is SExistsVal:
        var = node.var
        body = _compile_syn(node.body, values)
        want = t is SExistsVal  # short-circuit value

        def quant_val(S, sigma, delta):
            saved = delta.get(var, _MISSING)
            try:
                for v in values:
                    delta[var] = v
                    if body(S, sigma, delta) == want:
                        return want
                return not want
            finally:
                if saved is _MISSING:
                    delta.pop(var, None)
                else:
                    delta[var] = saved

        return quant_val
    if t is SForallState or t is SExistsState:
        name = node.state
        body = _compile_syn(node.body, values)
        want = t is SExistsState

        def quant_state(S, sigma, delta):
            saved = sigma.get(name, _MISSING)
            try:
                for phi in S:
                    sigma[name] = phi
                    if body(S, sigma, delta) == want:
                        return want
                return not want
            finally:
                if saved is _MISSING:
                    sigma.pop(name, None)
                else:
                    sigma[name] = saved

        return quant_state
    raise TypeError("not a syntactic hyper-assertion: %r" % (node,))


def _whole_any(assertion, domain, values, delta=None):
    """``S -> bool`` for any assertion: compiled closures for the Def. 9
    fragment, composed children for the pointwise combinators, and the
    assertion's own (already-Python) predicate otherwise.

    ``delta`` carries value-variable bindings for subtrees evaluated
    under a domain-expanded quantifier (the fallback path); top-level
    assertions are closed and pass none.
    """
    if isinstance(assertion, SynAssertion):
        fn = _compile_syn(assertion, values)
        if delta:
            bound = dict(delta)
            return lambda S: bool(fn(S, {}, dict(bound)))
        return lambda S: bool(fn(S, {}, {}))
    t = type(assertion)
    if t is AndAssertion:
        parts = tuple(_whole_any(p, domain, values) for p in assertion.parts)
        return lambda S: all(p(S) for p in parts)
    if t is OrAssertion:
        parts = tuple(_whole_any(p, domain, values) for p in assertion.parts)
        return lambda S: any(p(S) for p in parts)
    if t is NotAssertion:
        operand = _whole_any(assertion.operand, domain, values)
        return lambda S: not operand(S)
    return lambda S: bool(assertion.holds(S, domain))


# ---------------------------------------------------------------------------
# incremental kernels
# ---------------------------------------------------------------------------
#
# A kernel sees the *distinct-set* transitions of a SetEvaluator —
# ``add(φ)`` when a state first enters the multiset, ``remove(φ)`` when
# its count returns to zero — and answers ``value()`` from maintained
# counters.  Transitions are LIFO (the engine's recursion pushes and
# pops strictly nested), so at ``remove(φ)`` the distinct set equals
# what it was just after the matching ``add(φ)``; removals may therefore
# recompute exactly the quantities the addition computed, and subtract.


class _KConst:
    """A value independent of the set, computed lazily (so compile-time
    never raises where the interpreter would raise at ``holds`` time)."""

    __slots__ = ("_fn", "_value")

    def __init__(self, fn):
        self._fn = fn
        self._value = None

    def add(self, phi):
        pass

    def remove(self, phi):
        pass

    def value(self):
        if self._value is None:
            self._value = bool(self._fn())
        return self._value


class _KAnd:
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = children

    def add(self, phi):
        for child in self.children:
            child.add(phi)

    def remove(self, phi):
        for child in self.children:
            child.remove(phi)

    def value(self):
        return all(child.value() for child in self.children)


class _KOr(_KAnd):
    __slots__ = ()

    def value(self):
        return any(child.value() for child in self.children)


class _KNot:
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def add(self, phi):
        self.child.add(phi)

    def remove(self, phi):
        self.child.remove(phi)

    def value(self):
        return not self.child.value()


class _KCard:
    """``pred(|S|)`` — cardinality forms (``emp``, ``¬emp``, size caps)."""

    __slots__ = ("pred", "n")

    def __init__(self, pred):
        self.pred = pred
        self.n = 0

    def add(self, phi):
        self.n += 1

    def remove(self, phi):
        self.n -= 1

    def value(self):
        return bool(self.pred(self.n))


class _KForallPred:
    """``∀φ∈S. pred(φ)`` — count of failing states.

    Removal restores the journaled count instead of re-calling ``pred``
    (push/pop nest LIFO, so the popped entry is always the matching one).
    """

    __slots__ = ("pred", "bad", "journal")

    def __init__(self, pred):
        self.pred = pred
        self.bad = 0
        self.journal = []

    def add(self, phi):
        self.journal.append(self.bad)
        if not self.pred(phi):
            self.bad += 1

    def remove(self, phi):
        self.bad = self.journal.pop()

    def value(self):
        return self.bad == 0


class _KExistsPred:
    """``∃φ∈S. pred(φ)`` — count of satisfying states (journaled like
    :class:`_KForallPred`)."""

    __slots__ = ("pred", "good", "journal")

    def __init__(self, pred):
        self.pred = pred
        self.good = 0
        self.journal = []

    def add(self, phi):
        self.journal.append(self.good)
        if self.pred(phi):
            self.good += 1

    def remove(self, phi):
        self.good = self.journal.pop()

    def value(self):
        return self.good > 0


class _KMember:
    """``φ0 ∈ S``."""

    __slots__ = ("target", "present")

    def __init__(self, target):
        self.target = target
        self.present = 0

    def add(self, phi):
        if phi == self.target:
            self.present += 1

    def remove(self, phi):
        if phi == self.target:
            self.present -= 1

    def value(self):
        return self.present > 0


class _KSetCmp:
    """``S ⊆ T`` / ``T ⊆ S`` / ``S = T`` against a fixed target set."""

    __slots__ = ("target", "need_subset", "need_superset", "outside", "covered")

    def __init__(self, target, need_subset, need_superset):
        self.target = target
        self.need_subset = need_subset
        self.need_superset = need_superset
        self.outside = 0  # distinct states not in target
        self.covered = 0  # distinct target members present

    def add(self, phi):
        if phi in self.target:
            self.covered += 1
        else:
            self.outside += 1

    def remove(self, phi):
        if phi in self.target:
            self.covered -= 1
        else:
            self.outside -= 1

    def value(self):
        if self.need_subset and self.outside:
            return False
        if self.need_superset and self.covered != len(self.target):
            return False
        return True


def _tuples_containing(others, full, phi, m):
    """All ``m``-tuples over ``full = others + [phi]`` mentioning ``phi``,
    generated directly (split on the first occurrence of ``phi``) — no
    wasted enumeration, no per-tuple membership tests."""
    if m == 1:
        yield (phi,)
        return
    one = (phi,)
    for p in range(m):
        for prefix in product(others, repeat=p):
            for suffix in product(full, repeat=m - 1 - p):
                yield prefix + one + suffix


class _KBlock1:
    """One block of same-polarity state quantifiers: ``Q⟨x1⟩…Q⟨xm⟩. B``
    with ``B`` state-quantifier-free — a quantifier over ``m``-tuples.

    Maintains the count of tuples satisfying the body; adding a state
    evaluates the body only on tuples that mention it, and *removal is
    O(1)*: each add journals its counter snapshot and removal restores
    it, so backtracking never re-evaluates a body.  Push/pop nest LIFO
    (the engine's recursion), which is what makes the journal valid.

    Single-block quantifiers are additionally *monotone once decided*: a
    violating tuple stays violating under additions (``∀``), a
    satisfying one stays satisfying (``∃``).  Decided kernels therefore
    defer added states without evaluating anything — matching the
    interpreter's short-circuit exit, which otherwise makes
    mostly-rejecting preconditions O(1) per candidate for the
    interpreter while exact counting pays O(|S|) per push.
    """

    __slots__ = ("q", "m", "body", "prepare", "items", "states", "good",
                 "total", "journal")

    def __init__(self, q, m, body, prepare):
        self.q = q
        self.m = m
        self.body = body
        self.prepare = prepare
        self.items = {}
        self.states = []
        self.good = 0
        self.total = 0
        self.journal = []

    def _decided(self):
        if self.q == _FORALL:
            return self.good != self.total
        return self.good > 0

    def add(self, phi):
        if self._decided():
            self.journal.append(None)
            return
        self.journal.append((self.good, self.total))
        item = self.items.get(phi)
        if item is None:
            item = self.prepare(phi)
            self.items[phi] = item
        body = self.body
        m = self.m
        states = self.states
        good = 0
        total = 0
        if m == 1:
            total = 1
            if body((item,)):
                good = 1
        elif m == 2:
            # the overwhelmingly common case (low, agreement): unrolled
            for s in states:
                total += 2
                if body((item, s)):
                    good += 1
                if body((s, item)):
                    good += 1
            total += 1
            if body((item, item)):
                good += 1
        else:
            states.append(item)
            for t in _tuples_containing(states[:-1], states, item, m):
                total += 1
                if body(t):
                    good += 1
            states.pop()
        states.append(item)
        self.good += good
        self.total += total

    def remove(self, phi):
        entry = self.journal.pop()
        if entry is None:
            return
        self.good, self.total = entry
        self.states.pop()

    def value(self):
        if self.q == _FORALL:
            return self.good == self.total
        return self.good > 0


class _KFallback:
    """Whole-set (compiled) evaluation of a non-incremental subtree."""

    __slots__ = ("evaluator", "whole")

    def __init__(self, evaluator, whole):
        self.evaluator = evaluator
        self.whole = whole

    def add(self, phi):
        pass

    def remove(self, phi):
        pass

    def value(self):
        return self.whole(frozenset(self.evaluator.distinct))


# ---------------------------------------------------------------------------
# classification: assertion -> kernel plan
# ---------------------------------------------------------------------------
#
# A *plan* is ``make(evaluator) -> kernel``: classification and body
# compilation happen once per CompiledAssertion, kernel instantiation
# (fresh mutable counters + environment dicts) happens once per
# SetEvaluator, so concurrent scans never share mutable state.


def _fallback_plan(assertion, domain, values, reasons, reason, delta=None):
    reasons.append(reason)
    whole = _whole_any(assertion, domain, values, delta)
    return lambda ev: _KFallback(ev, whole)


# ---------------------------------------------------------------------------
# positional body compilation with per-state projections
# ---------------------------------------------------------------------------
#
# Block kernels evaluate their body on *items* rather than raw states:
# ``item = (φ, proj_0(φ), proj_1(φ), ...)`` where each projection is a
# maximal body subexpression that depends on a single quantified state
# and no value variables.  Items are prepared once per state (and memoized
# per kernel), so the per-tuple body collapses to comparisons over cached
# scalars — the compile-once counterpart of re-walking the expression
# tree for every pair the interpreter visits.

#: Placeholder state name projections are canonicalized to (so equal
#: subexpressions over different binder names share one projection).
_PROJ_NAME = "\x00proj"

#: Shared empty value environment for projection evaluation (projection
#: expressions are checked to be value-variable-free).
_EMPTY_DELTA = {}


class _Projections:
    """The projection registry of one compiled body."""

    __slots__ = ("index", "exprs")

    def __init__(self):
        self.index = {}
        self.exprs = []

    def slot(self, canonical):
        idx = self.index.get(canonical)
        if idx is None:
            idx = len(self.exprs)
            self.index[canonical] = idx
            self.exprs.append(canonical)
        return idx

    def prepare_fn(self):
        """``φ -> item`` evaluating every projection once.

        A projection that *raises* (an ill-typed subexpression the body's
        short-circuiting would never have evaluated) poisons the item:
        the bare ``(φ,)`` is returned and the kernel's body dispatch
        falls back to the non-hoisted body, which evaluates
        subexpressions lazily in place — exactly like the interpreter.
        """
        projfns = tuple(compile_hexpr(expr) for expr in self.exprs)
        if not projfns:
            return lambda phi: (phi,)

        def prepare(phi):
            sigma = {_PROJ_NAME: phi}
            item = [phi]
            try:
                for fn in projfns:
                    item.append(fn(sigma, _EMPTY_DELTA))
            except Exception:
                return (phi,)
            return tuple(item)

        return prepare


class _BodyGen:
    """Generates one Python expression for a block body.

    The generated source indexes item tuples directly (``ts[i][j]`` for
    hoisted projections, ``ts[i][0].prog[...]`` for residual lookups)
    and renders value quantifiers as ``all(...)``/``any(...)``
    generator expressions over the domain — the whole body becomes a
    single code object with zero Python-level call nesting, evaluated
    with the exact semantics (short-circuiting, iteration order, total
    operators) of the interpreter.
    """

    #: Binary operators rendered as native Python syntax (semantics
    #: identical to their :data:`repro.lang.expr.BINOPS` entries).
    _NATIVE_BIN = {"+": "+", "-": "-", "*": "*", "xor": "^"}
    _CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}

    def __init__(self, values, slots, projections, delta, hoist=True):
        self.values = values
        self.slots = slots
        self.projections = projections
        self.delta = delta
        self.hoist = hoist  # False: evaluate subexpressions in place
        self.ns = {"_VALUES": tuple(values)}
        self.scope = {}  # value-variable name -> generated identifier
        self._n = 0

    def _bind(self, obj, prefix):
        name = "_%s%d" % (prefix, self._n)
        self._n += 1
        self.ns[name] = obj
        return name

    def _raiser(self, message):
        def fail():
            raise EvaluationError(message)

        return "%s()" % self._bind(fail, "err")

    def _const(self, value):
        if type(value) is bool or type(value) is int:
            return repr(value)
        return self._bind(value, "c")

    def hexpr(self, e):
        if self.hoist:
            lookups = e.prog_lookups() | e.log_lookups()
            names = {state for state, _ in lookups}
            if len(names) == 1 and not e.free_value_vars():
                (name,) = names
                slot = self.slots.get(name)
                if slot is not None:
                    canonical = e.rename_state(name, _PROJ_NAME)
                    return "ts[%d][%d]" % (
                        slot, self.projections.slot(canonical) + 1
                    )
        t = type(e)
        if t is HLit:
            return self._const(e.value)
        if t is HVar:
            ident = self.scope.get(e.name)
            if ident is not None:
                return ident
            if e.name in self.delta:
                return self._const(self.delta[e.name])
            return self._raiser("unbound value variable %r" % e.name)
        if t is HProg or t is HLog:
            slot = self.slots.get(e.state)
            if slot is None:
                return self._raiser("unbound state variable %r" % e.state)
            field = "prog" if t is HProg else "log"
            return "ts[%d][0].%s[%s]" % (slot, field, self._bind(e.var, "v"))
        if t is HBin:
            op = self._NATIVE_BIN.get(e.op)
            left = self.hexpr(e.left)
            right = self.hexpr(e.right)
            if op is not None:
                return "(%s %s %s)" % (left, op, right)
            fn = _pe.BINOPS.get(e.op)
            if fn is None:
                return self._raiser("unknown binary operator %r" % e.op)
            return "%s(%s, %s)" % (self._bind(fn, "op"), left, right)
        if t is HFun:
            fn = _pe.FUNS.get(e.name)
            if fn is None:
                return self._raiser("unknown function %r" % e.name)
            args = ", ".join(self.hexpr(a) for a in e.args)
            return "%s(%s)" % (self._bind(fn, "f"), args)
        if t is HTupleE:
            items = [self.hexpr(i) for i in e.items]
            if len(items) == 1:
                return "(%s,)" % items[0]
            return "(%s)" % ", ".join(items)
        raise TypeError("not a hyper-expression: %r" % (e,))

    def body(self, node):
        t = type(node)
        if t is SBool:
            return repr(node.value)
        if t is SCmp:
            left = self.hexpr(node.left)
            right = self.hexpr(node.right)
            if node.op in self._CMP_OPS:
                return "(%s %s %s)" % (left, node.op, right)
            return self._raiser("unknown comparison %r" % node.op)
        if t is SAnd:
            return "(%s and %s)" % (self.body(node.left), self.body(node.right))
        if t is SOr:
            return "(%s or %s)" % (self.body(node.left), self.body(node.right))
        if t is SForallVal or t is SExistsVal:
            ident = "_y%d" % self._n
            self._n += 1
            saved = self.scope.get(node.var)
            self.scope[node.var] = ident
            try:
                inner = self.body(node.body)
            finally:
                if saved is None:
                    self.scope.pop(node.var, None)
                else:
                    self.scope[node.var] = saved
            fn = "all" if t is SForallVal else "any"
            return "%s(%s for %s in _VALUES)" % (fn, inner, ident)
        raise TypeError("not a block body: %r" % (node,))

    def compile(self, node):
        """``ts -> bool`` — the generated body function."""
        source = "lambda ts: (%s)" % self.body(node)
        return eval(source, self.ns)  # noqa: S307 — our own generated code


def _finalize_blocks(blocks, wrappers, body_node, values, delta):
    """The kernel plan for one peeled quantifier block + state-free body.

    ``wrappers`` are the value quantifiers sunk through the prefix (they
    commute with every state quantifier below their original position);
    they re-wrap the body, so the compiled body evaluates the value
    loops inline — with short-circuiting, and without expanding the
    kernel over the domain.

    The body is compiled *positionally* over item tuples, with
    single-state subexpressions hoisted into per-state projections (see
    :class:`_Projections`): each state's projections are computed once
    and memoized, so evaluating a tuple combines cached scalars.
    """
    for node in reversed(wrappers):
        body_node = type(node)(node.var, body_node)
    # positional slots: block names; inner binders shadow outer ones, so
    # the *last* occurrence of a name wins
    (q, names) = blocks[0]
    slots = {name: i for i, name in enumerate(names)}
    projections = _Projections()
    fast = _BodyGen(values, slots, projections, delta).compile(body_node)
    if projections.exprs:
        # a poisoned item (a projection raised during prepare) is the
        # bare ``(φ,)``: the fast body's ``ts[i][j]`` access then raises
        # IndexError — which nothing else in the generated code can — and
        # the dispatch falls back to the non-hoisted body, preserving the
        # interpreter's lazy evaluation order for raising subexpressions
        safe = _BodyGen(
            values, slots, _Projections(), delta, hoist=False
        ).compile(body_node)

        def body_fn(ts, _fast=fast, _safe=safe):
            try:
                return _fast(ts)
            except IndexError:
                return _safe(ts)

    else:
        body_fn = fast
    prepare = projections.prepare_fn()
    m = len(names)
    return lambda ev: _KBlock1(q, m, body_fn, prepare)


def _has_state_quant(node):
    t = type(node)
    if t is SForallState or t is SExistsState:
        return True
    if t is SAnd or t is SOr:
        return _has_state_quant(node.left) or _has_state_quant(node.right)
    if t is SForallVal or t is SExistsVal:
        return _has_state_quant(node.body)
    return False


def _state_polarities(node, out=None):
    """The set of polarities of all state quantifiers in ``node``."""
    if out is None:
        out = set()
    t = type(node)
    if t is SForallState or t is SExistsState:
        out.add(_FORALL if t is SForallState else _EXISTS)
        _state_polarities(node.body, out)
    elif t is SAnd or t is SOr:
        _state_polarities(node.left, out)
        _state_polarities(node.right, out)
    elif t is SForallVal or t is SExistsVal:
        _state_polarities(node.body, out)
    return out


def _plan_blocks(root, blocks, wrappers, cur, domain, values, delta, reasons,
                 weight):
    """Peel state-quantifier blocks from ``cur`` (entered at ``root``).

    ``blocks`` is the prefix peeled so far as ``(polarity, [names])``
    runs.  A value quantifier met inside the prefix is *sunk* below the
    remaining state quantifiers when they all share its polarity (the
    quantifiers commute, and the compiled body closure then evaluates
    the value loop inline).

    Only a *single* same-polarity block is incremental: a run of
    ``∀``/``∃`` state quantifiers is a quantifier over tuples, monotone
    once decided.  Alternating blocks (``∀…∃``, GNI's ``∀∀∃``) are
    genuinely non-monotone — an added state can flip the verdict either
    way — so they fall back to compiled whole-set evaluation, on the
    *whole* ``root`` subtree, since the peeled binders scope over
    everything below.  A value quantifier whose remaining scope mixes
    polarities falls back the same way: the alternation below would doom
    every expanded instantiation anyway, so one fallback kernel (not
    ``|domain|`` identical ones) does the job.
    """
    t = type(cur)
    if t is SForallState or t is SExistsState:
        pol = _FORALL if t is SForallState else _EXISTS
        if blocks and blocks[-1][0] == pol:
            nblocks = blocks[:-1] + [(pol, blocks[-1][1] + [cur.state])]
        elif blocks:
            return _fallback_plan(
                root, domain, values, reasons,
                "alternating state-quantifier blocks are non-monotone",
                delta,
            )
        else:
            nblocks = blocks + [(pol, [cur.state])]
        return _plan_blocks(
            root, nblocks, wrappers, cur.body, domain, values, delta,
            reasons, weight,
        )
    if not _has_state_quant(cur):
        # the rest is the state-free body (value quantifiers included:
        # the compiled closure evaluates them per body call)
        return _finalize_blocks(blocks, wrappers, cur, values, delta)
    if t is SForallVal or t is SExistsVal:
        vpol = _FORALL if t is SForallVal else _EXISTS
        if _state_polarities(cur.body) == {vpol}:
            # every remaining state quantifier shares the polarity:
            # ``Qy. Q⟨φ⟩. A ≡ Q⟨φ⟩. Qy. A`` — sink the value quantifier
            # into the compiled body
            return _plan_blocks(
                root, blocks, wrappers + [cur], cur.body, domain, values,
                delta, reasons, weight,
            )
        # mixed or opposite polarities remain below: expanding over the
        # domain could only yield children that hit the alternation (or
        # opposite-polarity) fallback themselves — emit one fallback
        return _fallback_plan(
            root, domain, values, reasons,
            "value quantifier above alternating state-quantifier blocks",
            delta,
        )
    return _fallback_plan(
        root, domain, values, reasons,
        "state quantifier nested under boolean structure inside a "
        "quantified body",
        delta,
    )


def _plan_syn(node, domain, values, delta, reasons, weight):
    t = type(node)
    if t is SBool:
        value = node.value
        return lambda ev: _KConst(lambda: value)
    if t is SCmp:
        fn = _compile_syn(node, values)
        d = dict(delta)
        return lambda ev: _KConst(lambda: fn(_EMPTY_SET, {}, dict(d)))
    if t is SAnd or t is SOr:
        left = _plan_syn(node.left, domain, values, delta, reasons, weight)
        right = _plan_syn(node.right, domain, values, delta, reasons, weight)
        kernel = _KAnd if t is SAnd else _KOr
        return lambda ev: kernel((left(ev), right(ev)))
    if t is SForallVal or t is SExistsVal:
        if not _has_state_quant(node.body):
            # constant w.r.t. the set: one compiled closure, no expansion
            fn = _compile_syn(node, values)
            d = dict(delta)
            return lambda ev: _KConst(lambda: fn(_EMPTY_SET, {}, dict(d)))
        vpol = _FORALL if t is SForallVal else _EXISTS
        if _state_polarities(node.body) == {vpol}:
            # sink into the (future) state blocks' compiled body
            return _plan_blocks(
                node, [], [node], node.body, domain, values, delta, reasons,
                weight,
            )
        if weight * max(len(values), 1) > EXPANSION_LIMIT:
            return _fallback_plan(
                node, domain, values, reasons,
                "value-quantifier expansion exceeds %d instantiations"
                % EXPANSION_LIMIT,
                delta,
            )
        children = []
        for v in values:
            d2 = dict(delta)
            d2[node.var] = v
            children.append(
                _plan_syn(
                    node.body, domain, values, d2, reasons,
                    weight * max(len(values), 1),
                )
            )
        kernel = _KAnd if t is SForallVal else _KOr
        children = tuple(children)
        return lambda ev: kernel(tuple(child(ev) for child in children))
    if t is SForallState or t is SExistsState:
        return _plan_blocks(
            node, [], [], node, domain, values, delta, reasons, weight
        )
    return _fallback_plan(
        node, domain, values, reasons,
        "unrecognized syntactic form %s" % type(node).__name__,
        delta,
    )


def _plan_any(assertion, domain, values, reasons):
    if isinstance(assertion, SynAssertion):
        return _plan_syn(assertion, domain, values, {}, reasons, 1)
    t = type(assertion)
    if t is AndAssertion or t is OrAssertion:
        parts = tuple(
            _plan_any(p, domain, values, reasons) for p in assertion.parts
        )
        kernel = _KAnd if t is AndAssertion else _KOr
        return lambda ev: kernel(tuple(part(ev) for part in parts))
    if t is NotAssertion:
        child = _plan_any(assertion.operand, domain, values, reasons)
        return lambda ev: _KNot(child(ev))
    if t is Cardinality:
        pred = assertion.pred
        return lambda ev: _KCard(pred)
    if t is ForallStates:
        pred = assertion.pred
        return lambda ev: _KForallPred(pred)
    if t is ExistsStates:
        pred = assertion.pred
        return lambda ev: _KExistsPred(pred)
    if t is ContainsState:
        target = assertion.state
        return lambda ev: _KMember(target)
    if t is EqualsSet:
        target = assertion.target
        return lambda ev: _KSetCmp(target, True, True)
    if t is SubsetOf:
        target = assertion.target
        return lambda ev: _KSetCmp(target, True, False)
    if t is SupersetOf:
        target = assertion.target
        return lambda ev: _KSetCmp(target, False, True)
    if t is ForallValue or t is ExistsValue:
        if len(assertion.indices) > EXPANSION_LIMIT:
            return _fallback_plan(
                assertion, domain, values, reasons,
                "indexed family larger than %d" % EXPANSION_LIMIT,
            )
        parts = tuple(
            _plan_any(assertion.family(x), domain, values, reasons)
            for x in assertion.indices
        )
        kernel = _KAnd if t is ForallValue else _KOr
        return lambda ev: kernel(tuple(part(ev) for part in parts))
    if t is SemAssertion:
        if assertion is TRUE_H:
            return lambda ev: _KConst(lambda: True)
        if assertion is FALSE_H:
            return lambda ev: _KConst(lambda: False)
        return _fallback_plan(
            assertion, domain, values, reasons,
            "opaque semantic predicate %r" % assertion.label,
        )
    return _fallback_plan(
        assertion, domain, values, reasons,
        "non-incremental combinator %s" % type(assertion).__name__,
    )


def _is_set_constant(assertion):
    """Whether the assertion's truth cannot depend on the set at all."""
    if isinstance(assertion, SynAssertion):
        return not _has_state_quant(assertion)
    if assertion is TRUE_H or assertion is FALSE_H:
        return True
    t = type(assertion)
    if t is AndAssertion or t is OrAssertion:
        return all(_is_set_constant(p) for p in assertion.parts)
    if t is NotAssertion:
        return _is_set_constant(assertion.operand)
    return False


# ---------------------------------------------------------------------------
# the public objects
# ---------------------------------------------------------------------------


class SetEvaluator:
    """Incremental evaluation of one assertion along a push/pop walk.

    The evaluator tracks a *multiset* of states (images overlap, so the
    engine's post-set unions push the same state repeatedly); kernels
    see only distinct-set transitions.  ``push``/``pop`` **must nest
    LIFO** — exactly how the engine's subset recursion uses them; the
    kernels' O(1) backtracking journals rely on it.
    """

    __slots__ = ("counts", "_stack", "_root", "_fast")

    def __init__(self, plan, fast=False):
        self.counts = {}
        self._stack = []
        self._root = plan(self)
        # fast mode skips the multiset bookkeeping entirely; only valid
        # when no kernel reads ``distinct`` (no whole-set fallbacks) AND
        # the caller uses the push_state/pop_state protocol
        self._fast = fast

    @property
    def distinct(self):
        """The current distinct set (a live view of the multiset keys)."""
        return self.counts

    def push_state(self, phi):
        """Push ``phi``, which the caller guarantees is not present.

        The engine's subset recursion qualifies: combination enumeration
        never repeats a state.  In fast mode this skips the multiset
        bookkeeping and feeds the kernels directly.
        """
        if self._fast:
            self._root.add(phi)
        else:
            self.push(phi)

    def pop_state(self, phi):
        """Undo the matching :meth:`push_state` (LIFO)."""
        if self._fast:
            self._root.remove(phi)
        else:
            self.pop()

    def push(self, phi):
        """Add one occurrence of ``phi`` to the multiset."""
        counts = self.counts
        count = counts.get(phi, 0) + 1
        counts[phi] = count
        self._stack.append(phi)
        if count == 1:
            self._root.add(phi)

    def push_many(self, phis):
        """Push every state of ``phis``; returns the count to pop."""
        counts = self.counts
        stack = self._stack
        root_add = self._root.add
        pushed = 0
        for phi in phis:
            count = counts.get(phi, 0) + 1
            counts[phi] = count
            stack.append(phi)
            if count == 1:
                root_add(phi)
            pushed += 1
        return pushed

    def pop(self):
        """Undo the most recent push."""
        counts = self.counts
        phi = self._stack.pop()
        count = counts[phi] - 1
        if count:
            counts[phi] = count
        else:
            del counts[phi]
            self._root.remove(phi)

    def pop_many(self, pushed):
        """Undo the ``pushed`` most recent pushes."""
        counts = self.counts
        stack = self._stack
        root_remove = self._root.remove
        for _ in range(pushed):
            phi = stack.pop()
            count = counts[phi] - 1
            if count:
                counts[phi] = count
            else:
                del counts[phi]
                root_remove(phi)

    def value(self):
        """Truth of the assertion on the current distinct set."""
        return bool(self._root.value())


class CompiledAssertion:
    """One assertion, compiled once for a fixed domain.

    ``holds(S)`` is compiled whole-set evaluation; ``evaluator()``
    builds a fresh :class:`SetEvaluator` for an enumeration walk.
    ``incremental`` is ``False`` when any subtree fell back to whole-set
    evaluation; the reasons are on :attr:`fallback_reasons`.
    """

    __slots__ = ("assertion", "domain", "fallback_reasons", "constant",
                 "_whole", "_plan")

    def __init__(self, assertion, domain):
        if not isinstance(assertion, Assertion):
            raise TypeError("not a hyper-assertion: %r" % (assertion,))
        self.assertion = assertion
        self.domain = domain
        values = tuple(domain) if domain is not None else ()
        reasons = []
        self._plan = _plan_any(assertion, domain, values, reasons)
        self._whole = _whole_any(assertion, domain, values)
        self.fallback_reasons = tuple(reasons)
        self.constant = _is_set_constant(assertion)

    @property
    def incremental(self):
        """Whether every subtree evaluates incrementally under push/pop."""
        return not self.fallback_reasons

    def holds(self, states):
        """Compiled whole-set evaluation (same verdicts as the
        interpreted ``assertion.holds(states, domain)``)."""
        return self._whole(frozenset(states))

    def evaluator(self):
        """A fresh incremental evaluator (empty set).

        Fully-incremental plans run the evaluator in fast mode: callers
        using the ``push_state``/``pop_state`` distinct-state protocol
        (the engine's subset recursion) bypass the multiset bookkeeping.
        """
        return SetEvaluator(self._plan, fast=not self.fallback_reasons)

    def __repr__(self):
        mode = "incremental" if self.incremental else (
            "whole-set fallback: %s" % "; ".join(self.fallback_reasons)
        )
        return "CompiledAssertion(%s, %s)" % (
            self.assertion.describe(),
            mode,
        )


def compile_assertion(assertion, domain, cache=None):
    """The :class:`CompiledAssertion` for ``(assertion, domain)``.

    Cached structurally for Def. 9 assertions (equal trees share one
    artifact) and by identity for semantic ones; ``cache`` defaults to
    the module-wide :func:`~repro.compile.cache.default_cache`.
    """
    if cache is None:
        cache = default_cache()

    def build():
        compiled = CompiledAssertion(assertion, domain)
        cache.record_fallback(compiled.fallback_reasons)
        return compiled

    return cache.get_or_build(("assertion", assertion, domain), build)


def _peel_state_prefix(node):
    """``([(polarity, name), ...], body)`` for a pure state-quantifier
    chain (alternation allowed), or ``None`` when the assertion is not a
    chain of state quantifiers over a state-quantifier-free body."""
    prefix = []
    while True:
        t = type(node)
        if t is SForallState:
            prefix.append((_FORALL, node.state))
        elif t is SExistsState:
            prefix.append((_EXISTS, node.state))
        else:
            break
        node = node.body
    if not prefix or _has_state_quant(node):
        return None
    if not isinstance(node, (SBool, SCmp, SAnd, SOr, SForallVal,
                             SExistsVal)):
        return None
    return prefix, node


class _MaskWhole:
    """Whole-set evaluation of a state-quantifier-prefix assertion over
    an id bitmask.

    This is the mask counterpart of the interpreter's nested-loop
    ``holds``: the quantifier prefix (alternation allowed — GNI's
    ``∀∀∃``, its violation's ``∃∃∀``) runs as nested loops over
    *prepared items*, the body is one generated code object
    (:class:`_BodyGen`) over item tuples, and each state's projections
    are computed **once per interned id for the lifetime of the
    universe** — across every candidate set the enumeration asks about —
    instead of re-walking the expression tree per tuple per candidate.
    Truth is iteration-order independent, so bit-scan id order replaces
    frozenset hash order without changing any verdict.
    """

    __slots__ = ("pols", "body", "prepare", "universe", "items")

    def __init__(self, pols, body, prepare, universe):
        self.pols = pols
        self.body = body
        self.prepare = prepare
        self.universe = universe
        self.items = []  # id -> prepared item, grown lazily

    def _pool(self, mask):
        items = self.items
        state_of = self.universe.state_of
        prepare = self.prepare
        out = []
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            if i >= len(items):
                items.extend([None] * (i + 1 - len(items)))
            item = items[i]
            if item is None:
                item = prepare(state_of(i))
                items[i] = item
            out.append(item)
        return out

    def __call__(self, mask):
        pool = self._pool(mask)
        pols = self.pols
        body = self.body
        depth = len(pols)
        ts = [None] * depth

        def rec(k):
            if k == depth:
                return bool(body(ts))
            want = pols[k] == _EXISTS
            nxt = k + 1
            for item in pool:
                ts[k] = item
                if rec(nxt) == want:
                    return want
            return not want

        return rec(0)


def mask_prefix_fn(compiled, universe):
    """The :class:`_MaskWhole` evaluator for ``compiled`` over
    ``universe``'s interner, or ``None`` when the assertion is not a
    pure state-quantifier chain.

    The applicable shapes are exactly the alternating-prefix forms that
    force the whole-set fallback in the first place (GNI's ``∀∀∃``, its
    violation's ``∃∃∀``) — the engine calls this per candidate set
    instead of running any evaluator traffic for the assertion.
    """
    assertion = compiled.assertion
    domain = compiled.domain
    if not isinstance(assertion, SynAssertion):
        return None
    peeled = _peel_state_prefix(assertion)
    if peeled is None:
        return None
    prefix, body_node = peeled
    names = [name for _, name in prefix]
    if len(set(names)) != len(names):
        return None
    pols = tuple(q for q, _ in prefix)
    values = tuple(domain) if domain is not None else ()
    slots = {name: i for i, name in enumerate(names)}
    projections = _Projections()
    fast = _BodyGen(values, slots, projections, {}).compile(body_node)
    if projections.exprs:
        safe = _BodyGen(
            values, slots, _Projections(), {}, hoist=False
        ).compile(body_node)

        def body_fn(ts, _fast=fast, _safe=safe):
            try:
                return _fast(ts)
            except IndexError:
                return _safe(ts)

    else:
        body_fn = fast
    return _MaskWhole(pols, body_fn, projections.prepare_fn(), universe)


def compile_mask_fn(compiled, universe):
    """``mask -> bool`` whole-set evaluation of ``compiled`` over
    interned-id bitmasks of ``universe``.

    A pure state-quantifier prefix (the alternating forms that *cause*
    the fallback) evaluates natively over the mask through
    :func:`mask_prefix_fn`; any other shape decodes the mask at the
    boundary and reuses the compiled whole-set closure — never faster,
    never different.
    """
    fn = mask_prefix_fn(compiled, universe)
    if fn is not None:
        return fn
    whole = compiled.holds
    states_of = universe.states_of
    return lambda mask: whole(states_of(mask))


def compile_state_predicate(body, state_name, domain, cache=None):
    """``φ -> bool`` for a state-quantifier-free Def. 9 body with one
    bound state — the engine's precondition prefilter compiles its
    per-state pruning predicates through this."""
    if cache is None:
        cache = default_cache()
    values = tuple(domain) if domain is not None else ()

    def build():
        fn = _compile_syn(body, values)
        # fresh environment dicts per call: the cached predicate may be
        # shared across sessions and threads
        return lambda phi: bool(fn(_EMPTY_SET, {state_name: phi}, {}))

    return cache.get_or_build(("state-pred", body, state_name, domain), build)
