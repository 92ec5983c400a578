"""Test-side reference semantics, kept out of the library.

* :func:`unify_selector` unifies a message against a selector's AST straight
  from the README's rules, with no compiled alpha tests or bind terms: the
  reference the engine's ``matching.extend_env`` is checked against.
* :func:`guard_no_consume` wraps the engine's decision procedure to check
  that a rejected guard leaves every slot as it found it.

The reference matching here imports only ``nodes`` and ``values``, so a bug
in the compiled matcher cannot hide in it; only the wrapper touches the
engine, which it checks.
"""

from __future__ import annotations

import sprw.engine
from sprw.nodes import Const, MayDistinct, Selector, Var
from sprw.values import value_in, values_equal

_MISSING = object()


def unify_selector(sel: Selector, msg, env=None, distinct=None):
    """Unify one message against one selector under existing bindings.

    Bare variables bind or must agree with ``env``.  ``@name`` matches any
    value without touching the environment.  ``!name`` adds the value to the
    name's distinctness set and fails if it is already present.  Returns the
    extended (env, distinct) pair, or None when the message does not match;
    the inputs are never mutated.
    """
    env = dict(env or {})
    distinct = {k: list(v) for k, v in (distinct or {}).items()}
    if msg.type_tag != sel.type_tag or len(msg.attrs) != len(sel.terms):
        return None
    for term, value in zip(sel.terms, msg.attrs):
        if isinstance(term, Const):
            if not values_equal(term.value, value):
                return None
        elif isinstance(term, Var):
            current = env.get(term.name, _MISSING)
            if current is _MISSING:
                env[term.name] = value
            elif not values_equal(current, value):
                return None
        elif not isinstance(term, MayDistinct):  # MustDistinct
            seen = distinct.setdefault(term.name, [])
            if value_in(value, seen):
                return None
            seen.append(value)
    return env, distinct


def guard_no_consume(monkeypatch) -> list[tuple[str, bool]]:
    """Wrap ``sprw.engine.evaluate_pattern`` for the life of ``monkeypatch``.

    For every engine evaluation whose guard rejects, the message ids that
    ``get_candidates(cons)`` yields for every constituent must be the same
    before and after the call.  Returns the list the wrapper appends
    (pattern name, whether they were) to at each such evaluation."""
    rejections: list[tuple[str, bool]] = []
    evaluate = sprw.engine.evaluate_pattern

    def live_ids(cp, get_candidates):
        return [
            [m.id for m in get_candidates(cons)]
            for alt in cp.alternatives
            for cons in alt.constituents
        ]

    def checked(cp, get_candidates, *args):
        before = live_ids(cp, get_candidates)
        outcome = evaluate(cp, get_candidates, *args)
        if outcome.guard_failed:
            rejections.append((cp.name, live_ids(cp, get_candidates) == before))
        return outcome

    monkeypatch.setattr(sprw.engine, "evaluate_pattern", checked)
    return rejections
