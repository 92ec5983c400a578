"""Combination selection over candidate buffers.

This is the decision procedure both the engine and the oracle run at every
evaluation point.  Policy: depth-first search over positive constituents in
textual order, candidates tried oldest-first (or newest-first under
``last: true``), so the first complete combination found is the lexicographic
minimum (resp. maximum) over all valid combinations.  Accumulation
constituents contribute a greedy policy-ordered group instead of a branch
point.  Guards see only the single policy-selected combination: a false guard
rejects the whole cycle without consuming anything.

Two optional inputs narrow the search without changing its result.  A
``lookup`` callback returns a keyed slot's candidates whose join key equals
the environment's, a superset of those that can unify.  A ``watermark``
promises that no valid combination of messages with ``seq`` at or below it
exists; on a delta alternative the same search then runs once per seed slot
over the combinations holding a newer message, and the policy-least (or
greatest) of their hits is the answer.  Every candidate still passes the
same eligibility, unification, ordering and negation checks.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(slots=True)
class Selected:
    """A pre-guard combination: chosen messages per positive constituent."""

    groups: dict[int, list[Message]]  # cons_index -> members, (ts, seq) ascending
    env: dict[str, Value]
    max_ts: int


@dataclass(slots=True)
class EvalOutcome:
    result: MatchResult | None = None
    guard_failed: bool = False
    diagnostics: tuple[Diagnostic, ...] = ()


_NO_MATCH = EvalOutcome()
_GUARD_FAILED = EvalOutcome(guard_failed=True)


def evaluate_pattern(
    cp: CompiledPattern,
    get_candidates,
    get_blockers,
    now: int,
    eligible,
    cycle: int = 0,
    lookup=None,
    watermark: int | None = None,
) -> EvalOutcome:
    """Attempt one match for ``cp`` at time ``now``.

    ``get_candidates(alt_idx, cons_index)`` yields unconsumed messages in
    (ts, seq) ascending order; ``get_blockers`` likewise for negated
    constituents.  ``eligible(msg)`` applies the retention/lifetime predicate.
    ``lookup(alt_idx, cons_index, key)``, when given, yields a keyed slot's
    candidates with that join key, in the same order.  ``watermark``, when
    given with ``lookup``, restricts delta alternatives to combinations that
    hold a message with a greater ``seq``.
    At most one match is produced (single pattern selection).
    """
    for a_idx, alt in enumerate(cp.alternatives):
        sel = _select(
            cp, alt, a_idx, get_candidates, get_blockers, now, eligible, lookup, watermark
        )
        if sel is None:
            continue
        intermediates: dict[str, Value] = {}
        try:
            for cons in alt.constituents:
                if cons.negated or not cons.transformers:
                    continue
                env = dict(sel.env)
                env.update(intermediates)
                _, inter = apply_transformers(
                    sel.groups[cons.cons_index], cons.transformers, env
                )
                intermediates.update(inter)
            if cp.guard is not None:
                genv = dict(sel.env)
                genv.update(intermediates)
                verdict = eval_expr(cp.guard, genv)
                if not isinstance(verdict, bool):
                    raise EvalError("TypeMismatch", f"guard produced {verdict!r}")
                if not verdict:
                    return _GUARD_FAILED
        except EvalError as err:
            return EvalOutcome(
                diagnostics=(Diagnostic(err.code, cp.name, now, str(err)),)
            )

        messages: list[Message] = []
        for cons in alt.constituents:
            if not cons.negated:
                messages.extend(sel.groups[cons.cons_index])
        result = MatchResult(
            pattern=cp.name,
            messages=tuple(messages),
            bindings=sel.env,
            intermediates=intermediates,
            at=now,
            cycle=cycle,
        )
        return EvalOutcome(result=result)
    return _NO_MATCH


def _select(
    cp: CompiledPattern,
    alt: CompiledAlternative,
    a_idx: int,
    get_candidates,
    get_blockers,
    now: int,
    eligible,
    lookup,
    watermark: int | None,
) -> Selected | None:
    positives = alt.positives
    if len(positives) == 1 and not alt.negatives and not positives[0].accumulates:
        # dominant shape: a single plain constituent, no join to search
        cons = positives[0]
        cands = get_candidates(a_idx, cons.cons_index)
        for m in (reversed(cands) if cp.last else cands):
            if not eligible(m):
                continue
            r = extend_env(cons.bind_terms, m, {}, {})
            if r is not None:
                return Selected(groups={cons.cons_index: [m]}, env=r[0], max_ts=m.ts)
        return None
    groups: dict[int, list[Message]] = {}
    used: set[int] = set()
    # delta search: position seed_at holds only seed, and the positions
    # before it only messages at or below the watermark
    seed_at = -1
    seed: list[Message] = []

    def dfs(i, env, distinct, prev_key, min_ts, max_ts):
        if i == len(positives):
            if _negations_ok(cp, alt, a_idx, get_blockers, env, distinct, now, max_ts, eligible):
                return env, max_ts
            return None
        cons = positives[i]
        if i == seed_at:
            cands = seed
        elif lookup is not None and (cons.probe_in_order or seed_at >= 0):
            cands = lookup(a_idx, cons.cons_index, cons.probe_key(env))
            if i < seed_at:
                cands = [m for m in cands if m.seq <= watermark]
        else:
            cands = get_candidates(a_idx, cons.cons_index)
        if cons.accumulates:
            built = _build_group(cons, cp, cands, env, distinct, used, now, eligible)
            if built is None:
                return None
            group, env2, distinct2 = built
            ok, nkey, nmin, nmax = _order_ok(cp, group, prev_key, min_ts, max_ts)
            if not ok:
                return None
            groups[cons.cons_index] = group
            used.update(m.id for m in group)
            hit = dfs(i + 1, env2, distinct2, nkey, nmin, nmax)
            if hit is not None:
                return hit
            used.difference_update(m.id for m in group)
            del groups[cons.cons_index]
            return None
        ordered = reversed(cands) if cp.last else cands
        for m in ordered:
            if m.id in used or not eligible(m):
                continue
            r = extend_env(cons.bind_terms, m, env, distinct)
            if r is None:
                continue
            ok, nkey, nmin, nmax = _order_ok(cp, [m], prev_key, min_ts, max_ts)
            if not ok:
                continue
            groups[cons.cons_index] = [m]
            used.add(m.id)
            hit = dfs(i + 1, r[0], r[1], nkey, nmin, nmax)
            if hit is not None:
                return hit
            used.discard(m.id)
            del groups[cons.cons_index]
        return None

    if watermark is None or lookup is None or not alt.delta:
        hit = dfs(0, {}, {}, None, None, None)
        if hit is None:
            return None
        env, max_ts = hit
        return Selected(groups=dict(groups), env=env, max_ts=max_ts)

    # Every valid combination holds a message above the watermark; the first
    # position holding one is its seed slot j, and searching each slot's new
    # messages as seeds finds each such combination exactly once.
    best = best_key = None
    for j, cons in enumerate(positives):
        cands = get_candidates(a_idx, cons.cons_index)
        first_new = len(cands)
        while first_new and cands[first_new - 1].seq > watermark:
            first_new -= 1
        for m in cands[first_new:]:
            if not eligible(m):
                continue
            env = {}
            if j:  # the positions before the seed probe with its bindings
                r = extend_env(cons.bind_terms, m, env, {})
                if r is None:
                    continue
                env = r[0]
            seed_at, seed = j, [m]
            hit = dfs(0, env, {}, None, None, None)
            if hit is None:
                continue
            key = tuple(groups[c.cons_index][0].seq for c in positives)
            if best is None or (key > best_key if cp.last else key < best_key):
                best = Selected(groups=dict(groups), env=hit[0], max_ts=hit[1])
                best_key = key
            groups.clear()
            used.clear()
    return best


def _order_ok(cp, members, prev_key, min_ts, max_ts):
    """Apply seq ordering and interval spread to a newly chosen group."""
    first = members[0]
    last = members[-1]
    if cp.seq and prev_key is not None and (first.ts, first.seq) <= prev_key:
        return False, None, None, None
    nmin = first.ts if min_ts is None else min(min_ts, first.ts)
    nmax = last.ts if max_ts is None else max(max_ts, last.ts)
    if cp.seq:
        for a, b in zip(members, members[1:]):
            if (b.ts, b.seq) <= (a.ts, a.seq):
                return False, None, None, None
    if cp.interval_ms is not None and nmax - nmin > cp.interval_ms:
        return False, None, None, None
    return True, (last.ts, last.seq), nmin, nmax


def _build_group(
    cons: CompiledConstituent,
    cp: CompiledPattern,
    cands,
    env,
    distinct,
    used: set[int],
    now: int,
    eligible,
):
    """Greedy policy-ordered group for an accumulation constituent.

    Candidates consistent with the environment are accepted in policy order
    until the count target is reached (count / hybrid) or the window is
    exhausted (pure window).  Hybrid below target falls back to the window
    contents only when a guard or transformer is present to arbitrate."""
    w = cons.window_ms
    order = reversed(cands) if cp.last else cands
    acc: list[Message] = []
    for m in order:
        if m.id in used or not eligible(m):
            continue
        if w is not None and not (now - w < m.ts <= now):
            continue
        r = extend_env(cons.bind_terms, m, env, distinct)
        if r is None:
            continue
        env, distinct = r
        acc.append(m)
        if cons.count_n is not None and len(acc) == cons.count_n:
            break
    if cons.count_n is not None and len(acc) < cons.count_n:
        window_arbitrated = bool(cons.transformers) or cp.guard is not None
        if w is None or not window_arbitrated or not acc:
            return None
    if not acc:
        return None
    acc.sort(key=lambda m: (m.ts, m.seq))
    return acc, env, distinct


def _negations_ok(cp, alt, a_idx, get_blockers, env, distinct, now, max_ts, eligible) -> bool:
    for cons in alt.negatives:
        w = cons.window_ms
        if w is not None and now < max_ts + w:
            return False  # the absence window has not fully elapsed yet
        for m in get_blockers(a_idx, cons.cons_index):
            if not eligible(m):
                continue
            if w is not None:
                if not (now - w < m.ts <= now):
                    continue
            elif m.ts > now:
                continue
            if extend_env(cons.bind_terms, m, env, distinct) is not None:
                return False
    return True
