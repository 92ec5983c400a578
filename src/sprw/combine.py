"""Combination selection over candidate buffers.

This is the decision procedure both the engine and the oracle run at every
evaluation point.  Policy: depth-first search over positive constituents in
textual order, candidates tried oldest-first (or newest-first under
``last: true``), so the first complete combination found is the lexicographic
minimum (resp. maximum) over all valid combinations.  Accumulation
constituents contribute a greedy policy-ordered group instead of a branch
point.  Guards see only the single policy-selected combination: a false guard
rejects the whole cycle without consuming anything.  The search is a
module-level function over an explicit state tuple, not a closure, so an
evaluation leaves no reference cycle: reference counting frees all of it.
An alternative with one positive runs the same search, one step deep.

The caller's one slot view, which addresses a slot by its constituent,
decides liveness: it yields only messages younger than their slot's
``compile.death_age`` at the evaluation instant, so the search checks no
retention, lifetime or window age.  It checks unification, ``seq``,
``interval`` and negation, and skips the ``seq``/``interval`` bookkeeping on
an alternative with neither and no windowed negation.  A join step on a
keyed slot, or a negation there, passes the view the environment's join
key, and the view may narrow to the slot's messages with that key: any
superset of those that can unify gives the same result.

Optional inputs: a ``watermark``, which only the engine passes, narrows the
search without changing its result.  It promises that no valid combination
of messages with ``seq`` at or below it exists; on a delta alternative the
same search then runs once per seed slot over the combinations holding a
newer message, and the policy-least (or greatest) of their hits is the
answer; their policy keys are built only once a second hit arrives.  Every
seed is unified before its search, for the positions before it to probe
with, and not again at its own unless a ``!name`` term there must be
checked against the messages before it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .compile import CompiledAlternative, CompiledConstituent, CompiledPattern
from .errors import EvalError
from .matching import (
    Diagnostic,
    MatchResult,
    Message,
    apply_transformers,
    eval_expr,
    extend_env,
)
from .values import Value


class EvalOutcome(NamedTuple):
    result: MatchResult | None = None
    guard_failed: bool = False
    diagnostics: tuple[Diagnostic, ...] = ()


_NO_MATCH = EvalOutcome()
_GUARD_FAILED = EvalOutcome(guard_failed=True)
_REJECT = (False, None, None, None)
_TS_SEQ = attrgetter("ts", "seq")


def evaluate_pattern(
    cp: CompiledPattern,
    get_candidates,
    now: int,
    cycle: int = 0,
    watermark: int | None = None,
) -> EvalOutcome:
    """Attempt one match for ``cp`` at time ``now``.

    ``get_candidates(cons, key=None)`` yields the live messages of
    constituent ``cons``'s slot in (ts, seq) ascending order: unconsumed
    candidates on a positive slot, blockers on a negated one.  Given a keyed
    slot's join ``key``, it may yield any superset of the slot's messages
    with that key, up to the whole slot.  ``watermark``, when given,
    restricts delta alternatives to combinations that hold a message with a
    greater ``seq``.  At most one match is produced (single pattern
    selection).
    """
    for alt in cp.alternatives:
        sel = _select(cp, alt, get_candidates, now, watermark)
        if sel is None:
            continue
        groups, env = sel
        intermediates: dict[str, Value] = {}
        try:
            for cons in alt.transformed:
                _, inter = apply_transformers(
                    groups[cons.cons_index], cons.transformers,
                    {**env, **intermediates} if intermediates else env,
                )
                intermediates.update(inter)
            if cp.guard is not None:
                verdict = eval_expr(cp.guard, {**env, **intermediates} if intermediates else env)
                if not isinstance(verdict, bool):
                    raise EvalError("TypeMismatch", f"guard produced {verdict!r}")
                if not verdict:
                    return _GUARD_FAILED
        except EvalError as err:
            return EvalOutcome(
                diagnostics=(Diagnostic(err.code, cp.name, now, str(err)),)
            )

        messages: tuple[Message, ...] = ()
        for cons in alt.positives:
            messages += groups[cons.cons_index]
        # positional: the keyword form costs more per match
        return EvalOutcome(MatchResult(cp.name, messages, env, intermediates, now, cycle))
    return _NO_MATCH


def _select(
    cp: CompiledPattern,
    alt: CompiledAlternative,
    get_candidates,
    now: int,
    watermark: int | None,
) -> tuple | None:
    """The policy-selected pre-guard combination: (groups, env), where groups
    maps each positive's cons_index to the tuple of its members, (ts, seq)
    ascending; or None when there is none."""
    groups: dict[int, tuple[Message, ...]] = {}
    used: set[int] = set()
    fixed = (cp, alt, get_candidates, now, groups, used)
    if watermark is None or not alt.delta:
        env = _search(fixed + (-1, None, None), 0, {}, {}, None, None, None)
        return None if env is None else (groups, env)

    # Every valid combination holds a message above the watermark; the first
    # position holding one is its seed slot j, and searching each slot's new
    # messages as seeds finds each such combination exactly once.
    positives = alt.positives
    best = None
    for j, cons in enumerate(positives):
        cands = get_candidates(cons)
        first_new = len(cands)
        while first_new and cands[first_new - 1].seq > watermark:
            first_new -= 1
        for m in cands[first_new:]:
            # the positions before the seed probe with its bindings
            r = extend_env(cons.bind_terms, m, {}, {})
            if r is None:
                continue
            hit = _search(fixed + (j, (m,), watermark), 0, r[0], {}, None, None, None)
            if hit is None:
                continue
            used.clear()
            if best is not None:  # keep the policy-least (greatest) hit
                key, best_key = (tuple([g[c.cons_index][0].seq for c in positives])
                                 for g in (groups, best[0]))
                if not (key > best_key if cp.last else key < best_key):
                    continue
            best = (dict(groups), hit)
    return best


def _search(state, i, env, distinct, prev_key, min_ts, max_ts):
    """:func:`_select`'s depth-first search from positive ``i`` on: the env
    of the first complete combination, or None.  ``state`` is what stays
    fixed during one search; a delta search puts only its seed at position
    ``seed_at`` (-1 in a full search), and before it only messages at or
    below ``watermark``; the seed is already unified into ``env``.  The
    last position checks the negations itself, and a failed branch leaves
    its stale group behind for the next to overwrite."""
    cp, alt, get_candidates, now, groups, used, seed_at, seed, watermark = state
    positives = alt.positives
    cons = positives[i]
    final = i + 1 == len(positives)
    ordered = alt.ordered
    if i == seed_at:
        cands = seed
    elif cons.probe_in_order or seed_at >= 0:
        cands = get_candidates(cons, cons.probe_key(env))
        if i < seed_at and cands and cands[-1].seq > watermark:  # buckets ascend in seq
            cands = [m for m in cands if m.seq <= watermark]
    else:
        cands = get_candidates(cons)
    nkey = nmin = nmax = None
    if cons.accumulates:
        built = _build_group(cons, cp, cands, env, distinct, used)
        if built is None:
            return None
        group, env, distinct = built
        if ordered:
            ok, nkey, nmin, nmax = _order_ok(cp, group, prev_key, min_ts, max_ts)
            if not ok:
                return None
        groups[cons.cons_index] = group
        if final:
            if alt.negatives and not _negations_ok(alt, get_candidates, env, distinct, now, nmax):
                return None
            return env
        used.update(m.id for m in group)
        hit = _search(state, i + 1, env, distinct, nkey, nmin, nmax)
        if hit is None:
            used.difference_update(m.id for m in group)
        return hit
    bind_terms = cons.bind_terms
    # only a ``!name`` term can reject a seed already unified into env
    unify = i != seed_at or cons.must_distinct
    for m in (reversed(cands) if cp.last else cands):
        if m.id in used:
            continue
        r = extend_env(bind_terms, m, env, distinct) if unify else (env, distinct)
        if r is None:
            continue
        if ordered:
            ok, nkey, nmin, nmax = _order_ok(cp, (m,), prev_key, min_ts, max_ts)
            if not ok:
                continue
        if final:
            if alt.negatives and not _negations_ok(alt, get_candidates, r[0], r[1], now, nmax):
                continue
            groups[cons.cons_index] = (m,)
            return r[0]
        groups[cons.cons_index] = (m,)
        used.add(m.id)
        hit = _search(state, i + 1, r[0], r[1], nkey, nmin, nmax)
        if hit is not None:
            return hit
        used.discard(m.id)
    return None


def _order_ok(cp, members, prev_key, min_ts, max_ts):
    """Apply seq ordering and interval spread to a newly chosen group:
    (ok, key of its last member, new min ts, new max ts)."""
    first = members[0]
    last = members[-1]
    # a group ascends in (ts, seq), so only its first member can be out of order
    if cp.seq and prev_key is not None and (first.ts, first.seq) <= prev_key:
        return _REJECT
    lo = first.ts if min_ts is None or first.ts < min_ts else min_ts
    hi = last.ts if max_ts is None or last.ts > max_ts else max_ts
    if cp.interval_ms is not None and hi - lo > cp.interval_ms:
        return _REJECT
    return True, (last.ts, last.seq), lo, hi


def _build_group(
    cons: CompiledConstituent,
    cp: CompiledPattern,
    cands,
    env,
    distinct,
    used: set[int],
):
    """Greedy policy-ordered group for an accumulation constituent.

    Candidates consistent with the environment are accepted in policy order
    until the count target is reached (count / hybrid) or the window is
    exhausted (pure window).  A group smaller than the slot's ``min_group``
    fails: hybrid below target falls back to the window contents only when a
    guard or transformer is present to arbitrate."""
    count_n = cons.count_n
    bind_terms = cons.bind_terms
    acc: list[Message] = []
    for m in (reversed(cands) if cp.last else cands):
        if m.id in used:
            continue
        r = extend_env(bind_terms, m, env, distinct)
        if r is None:
            continue
        env, distinct = r
        acc.append(m)
        if len(acc) == count_n:
            break
    if len(acc) < cons.min_group:
        return None
    return tuple(sorted(acc, key=_TS_SEQ)), env, distinct


def _negations_ok(alt, get_candidates, env, distinct, now, max_ts) -> bool:
    for cons in alt.negatives:
        w = cons.window_ms
        if w is not None and now < max_ts + w:
            return False  # the absence window has not fully elapsed yet
        probe = cons.probe_key
        for m in get_candidates(cons, None if probe is None else probe(env)):
            if extend_env(cons.bind_terms, m, env, distinct) is not None:
                return False
    return True
