"""Closure compilation of hyper-expressions (Def. 9 ``e``).

``compile_hexpr`` lowers an :class:`~repro.assertions.syntax.HExpr` into
``(sigma_env, delta_env) -> value`` — one closure per tree, no ``eval``
dispatch per node.  Error behavior matches the interpreter: unbound
state/value variables raise :class:`~repro.errors.EvaluationError` at
call time, unbound program/logical variables inside a bound state
propagate the underlying ``KeyError`` exactly as ``ExtState.pvar`` does.
"""

from ..errors import EvaluationError
from ..lang.expr import BINOPS, CMPS, FUNS
from ..assertions.syntax import (
    HBin,
    HFun,
    HLit,
    HLog,
    HProg,
    HTupleE,
    HVar,
)


def _raiser(message):
    def fail(sigma_env, delta_env):
        raise EvaluationError(message)

    return fail


def compile_hexpr(hexpr, read=None):
    """Compile an :class:`~repro.assertions.syntax.HExpr` to
    ``(sigma_env, delta_env) -> value``.

    ``read``, when given, is called on every :class:`HProg`,
    :class:`HLog` and :class:`HVar` leaf, left to right, and returns the
    closure for it: a caller can collect the leaves' reads and bind
    states as something other than :class:`ExtState` objects."""
    t = type(hexpr)
    if read is not None and (t is HProg or t is HLog or t is HVar):
        return read(hexpr)
    if t is HLit:
        value = hexpr.value
        return lambda sigma, delta: value
    if t is HVar:
        name = hexpr.name

        def read_val(sigma, delta):
            try:
                return delta[name]
            except KeyError:
                raise EvaluationError("unbound value variable %r" % name)

        return read_val
    if t is HProg:
        state = hexpr.state
        var = hexpr.var

        def read_prog(sigma, delta):
            try:
                phi = sigma[state]
            except KeyError:
                raise EvaluationError("unbound state variable %r" % state)
            return phi.prog[var]

        return read_prog
    if t is HLog:
        state = hexpr.state
        var = hexpr.var

        def read_log(sigma, delta):
            try:
                phi = sigma[state]
            except KeyError:
                raise EvaluationError("unbound state variable %r" % state)
            return phi.log[var]

        return read_log
    if t is HBin:
        left = compile_hexpr(hexpr.left, read)
        right = compile_hexpr(hexpr.right, read)
        fn = BINOPS.get(hexpr.op)
        if fn is None:
            return _raiser("unknown binary operator %r" % hexpr.op)
        return lambda sigma, delta: fn(left(sigma, delta), right(sigma, delta))
    if t is HFun:
        args = tuple(compile_hexpr(a, read) for a in hexpr.args)
        fn = FUNS.get(hexpr.name)
        if fn is None:
            return _raiser("unknown function %r" % hexpr.name)
        if len(args) == 1:
            only = args[0]
            return lambda sigma, delta: fn(only(sigma, delta))
        return lambda sigma, delta: fn(*(a(sigma, delta) for a in args))
    if t is HTupleE:
        items = tuple(compile_hexpr(i, read) for i in hexpr.items)
        return lambda sigma, delta: tuple(i(sigma, delta) for i in items)
    raise TypeError("not a hyper-expression: %r" % (hexpr,))


def compile_cmp(op, left, right):
    """``(fn, left, right)`` for an atomic ``e1 ⪰ e2`` over compiled
    operands, to be called as ``fn(left(sigma, delta), right(sigma,
    delta))``.  For an unknown operator the returned ``left`` raises, so
    the error comes at call time and before either operand is read, like
    the interpreter's."""
    fn = CMPS.get(op)
    if fn is None:
        return None, _raiser("unknown comparison %r" % op), None
    return fn, left, right
