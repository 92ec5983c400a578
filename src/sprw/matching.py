"""Pure matching kernel: unification, guard evaluation, transformers.

Everything here is a pure function over immutable inputs; both the
incremental engine and the brute-force oracle are built on this module, so
any divergence between the two localises to their scheduling, not to the
matching semantics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import inf
from typing import Callable, NamedTuple

from .errors import EvalError
from .nodes import Bind, BinOp, Expr, Fold, Lit, NotOp, VarRef
from .values import Symbol, Value, is_number, value_in, values_equal


class Message(NamedTuple):
    """One ingested message: the unit of matching (immutable).  A named
    tuple, which costs less than half as much to build as a frozen dataclass."""

    id: int
    seq: int
    ts: int
    type_tag: Symbol
    attrs: tuple[Value, ...]


class MatchResult(NamedTuple):
    """One successful pattern activation (immutable), a named tuple as
    :class:`Message` is."""

    pattern: str
    messages: tuple[Message, ...]
    bindings: dict[str, Value]
    intermediates: dict[str, Value]
    at: int
    cycle: int = 0  # engine-internal match-cycle index; not part of the output format


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """Non-fatal evaluation failure reported on the diagnostics channel."""

    kind: str
    pattern: str
    at: int
    detail: str


# --------------------------------------------------------------------------
# unification


_MISSING = object()


def extend_env(bind_terms, msg: Message, env, distinct):
    """Unify a message its alpha node admitted (type, arity and constant
    tests hold) under ``env`` and ``distinct``.  ``bind_terms`` are its
    selector's (position, name, kind) terms: a variable (kind 0) binds or
    must agree with ``env``, and ``!name`` (kind 1) fails on a value already
    in the name's distinctness set.  The extended (env, distinct), or None."""
    attrs = msg.attrs
    new_env = None
    new_distinct = None
    for pos, name, kind in bind_terms:
        value = attrs[pos]
        if kind == 0:
            current = (new_env or env).get(name, _MISSING)
            if current is _MISSING:
                if new_env is None:
                    new_env = dict(env)
                new_env[name] = value
            elif type(current) is not type(value) or current != value:
                return None  # not values_equal(current, value), inlined
        else:
            seen = (new_distinct or distinct).get(name, ())
            if value_in(value, seen):
                return None
            if new_distinct is None:
                new_distinct = {k: list(v) for k, v in distinct.items()}
            new_distinct.setdefault(name, []).append(value)
    return (new_env if new_env is not None else env,
            new_distinct if new_distinct is not None else distinct)


# --------------------------------------------------------------------------
# guard expressions


def eval_expr(expr, env: dict[str, Value]) -> Value:
    """Evaluate a guard/transformer expression under ``env``.

    ``expr`` is an expression node, or the closure :func:`compile_expr` made
    of one (what a compiled pattern holds).  Raises :class:`EvalError`
    (UnboundVariable / TypeMismatch / DivisionByZero) instead of producing a
    value.
    """
    return (expr if callable(expr) else compile_expr(expr))(env)


# exact int/float pass is_number at once; other values take the full test
_NUMBER_TYPES = frozenset((int, float))


def _numbers(a, b) -> bool:
    """``is_number(a) and is_number(b)``."""
    return (type(a) in _NUMBER_TYPES or is_number(a)) and (
        type(b) in _NUMBER_TYPES or is_number(b)
    )


def _divide(a, b):
    if b == 0:
        raise EvalError("DivisionByZero", f"{a!r} / {b!r}")
    return a / b


# the operators whose operands must both be numbers
_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
# every arithmetic result must be printable in a JSON record: no inf or nan,
# and no int past the 4,300 digits Python converts to text by default
_MAX_DIGITS = 4300
_INT_BOUND = 10 ** _MAX_DIGITS


def compile_expr(expr: Expr) -> Callable[[dict[str, Value]], Value]:
    """Compile an expression to a closure over an environment.

    Deterministic and side-effect free.  ``and``/``or`` short-circuit and
    require booleans; comparisons take an int and a float by exact value, as
    Python does; symbols compare only with ``==``/``!=``; division always
    yields a float.  An arithmetic result that is not a finite float or an
    int of at most 4,300 digits is an error.  Operands are evaluated left to
    right, and every error is raised where the evaluation reaches it, never
    at compile time.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return lambda env: value
    if isinstance(expr, VarRef):
        name = expr.name

        def var(env):
            value = env.get(name, _MISSING)
            if value is _MISSING:
                raise EvalError("UnboundVariable", name)
            return value

        return var
    if isinstance(expr, NotOp):
        operand = compile_expr(expr.operand)

        def negate(env):
            v = operand(env)
            if not isinstance(v, bool):
                raise EvalError("TypeMismatch", f"not applied to {v!r}")
            return not v

        return negate
    op = expr.op
    left = compile_expr(expr.left)
    right = compile_expr(expr.right)
    if op in ("and", "or"):
        short = op == "or"  # the left value that decides the result alone

        def connective(env):
            lv = left(env)
            if not isinstance(lv, bool):
                raise EvalError("TypeMismatch", f"{op} applied to {lv!r}")
            if lv is short:
                return short
            rv = right(env)
            if not isinstance(rv, bool):
                raise EvalError("TypeMismatch", f"{op} applied to {rv!r}")
            return rv

        return connective
    if op in ("==", "!="):
        want = op == "=="

        def equality(env):
            lv = left(env)
            rv = right(env)
            if _numbers(lv, rv):
                return (lv == rv) is want
            return values_equal(lv, rv) is want

        return equality
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is not None:

        def checked(env):
            lv = left(env)
            rv = right(env)
            if not _numbers(lv, rv):
                raise EvalError("TypeMismatch", f"{lv!r} {op} {rv!r}")
            try:
                value = arithmetic(lv, rv)
            except OverflowError:  # an int too large to convert to a float
                value = inf
            # exact, so inf, nan and an int of more digits all fail
            if not abs(value) < _INT_BOUND:
                raise EvalError("OutOfRange", f"{op} gives no finite float or int "
                                              f"of at most {_MAX_DIGITS} digits")
            return value

        return checked
    apply = _COMPARISONS.get(op)

    def numeric(env):
        lv = left(env)
        rv = right(env)
        if not _numbers(lv, rv):
            raise EvalError("TypeMismatch", f"{lv!r} {op} {rv!r}")
        if apply is None:
            raise EvalError("TypeMismatch", f"unknown operator {op!r}")
        return apply(lv, rv)

    return numeric


# --------------------------------------------------------------------------
# transformers


def apply_transformers(
    msgs: list[Message],
    transformers,
    env: dict[str, Value],
) -> tuple[Value | None, dict[str, Value]]:
    """Run a fold/bind chain over a group of messages.

    ``transformers`` is a chain of Fold/Bind nodes, or the closure
    :func:`compile_transformers` made of one (what a compiled constituent
    holds).  ``msgs`` must be ordered by (ts, seq) ascending.
    """
    run = transformers if callable(transformers) else compile_transformers(transformers)
    return run(msgs, env)


def compile_transformers(transformers) -> Callable:
    """Compile a fold/bind chain to ``run(msgs, env) -> (value, intermediates)``.

    Fold left-folds its function over the full message tuples starting from
    the init evaluated under ``env``; the function body sees ``env``, the
    intermediates bound so far, its parameters and the accumulator.  Bind
    snapshots the current accumulated value under its name.
    """
    steps = []
    for t in transformers:
        if isinstance(t, Fold):
            params = t.fn.params
            named = tuple((i, name) for i, name in enumerate(params) if name is not None)
            steps.append((compile_expr(t.init), len(params), named, t.fn.acc_name,
                          compile_expr(t.fn.body)))
        else:
            assert isinstance(t, Bind)
            steps.append(t.name)

    def run(msgs, env):
        current: Value | None = None
        intermediates: dict[str, Value] = {}
        for step in steps:
            if isinstance(step, str):  # bind
                if current is None:
                    raise EvalError("BindWithoutFold", step)
                intermediates[step] = current
                continue
            init, arity, named, acc_name, body = step
            current = init(env)
            # every message sets the same names, so one environment serves all
            fenv = dict(env)
            fenv.update(intermediates)
            for m in msgs:
                tup = (m.type_tag, *m.attrs)
                if len(tup) != arity:
                    raise EvalError(
                        "ArityMismatch",
                        f"fold pattern has {arity} slots, message has {len(tup)}",
                    )
                for i, name in named:
                    fenv[name] = tup[i]
                fenv[acc_name] = current
                current = body(fenv)
        return current, intermediates

    return run
