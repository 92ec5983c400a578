"""Brute-force reference matcher.

Semantically identical to the incremental engine but with no incrementality:
alpha routing is precomputed in one forward pass over the trace (the stream
operators are deterministic in the message order alone), every evaluation
point re-enumerates candidate combinations over the full retained message
set, and the decision procedure itself is the shared one from
:mod:`sprw.combine`.  Its slot views alone decide liveness, by the engine's
rule: a message is dead from its slot's :func:`compile.death_age` on.  A
message a pattern consumed is no longer that pattern's candidate, but still
blocks its negations.  Evaluation points are derived from the trace: every
message event, plus every window/negation boundary a routed message induces,
plus debounce-clear points injected as matches occur.  Every pattern is
evaluated at every point.
A diagnostic is reported when it first arises, and again only after an
evaluation of the pattern ends otherwise (a match, a miss or a guard
rejection): once per episode, not once per evaluation, as in the engine.

The output is a pure function of (program, trace, lifetime); the acceptance
suite requires it to be byte-identical to the engine's.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .combine import evaluate_pattern
from .compile import AlphaRouter, CompiledProgram, death_age, expiry_bounds
from .matching import Diagnostic, MatchResult, Message, extend_env
from .tracefile import AdvanceEvent, TraceEvent


@dataclass(slots=True)
class OracleOutput:
    results: list[MatchResult] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def oracle_run(
    compiled: CompiledProgram,
    trace: list[TraceEvent],
    lifetime_ms: int | None = None,
) -> OracleOutput:
    out = OracleOutput()
    if not trace:
        return out
    horizon = _horizon(trace)

    # Forward pass: materialise messages and their alpha routing.
    router = AlphaRouter(compiled)
    messages: list[Message] = []
    routed: list[list] = []  # per message: list of (cons, p_idx, a_idx)
    for ev in trace:
        if isinstance(ev, AdvanceEvent):
            continue
        n = len(messages) + 1
        msg = Message(id=n, seq=n, ts=ev.ts, type_tag=ev.type_tag, attrs=ev.attrs)
        slots = []
        for spec in router.route(ev.type_tag.name, ev.attrs, ev.ts):
            for p_idx, a_idx, cons in spec.targets:
                if cons.needs_local_check and extend_env(cons.bind_terms, msg, {}, {}) is None:
                    continue
                slots.append((cons, p_idx, a_idx))
        messages.append(msg)
        routed.append(slots)

    # Static timer points: window/negation boundaries induced by routing.
    timer_points: set[int] = set()
    for msg, slots in zip(messages, routed):
        for cons, p_idx, a_idx in slots:
            if cons.window_ms is not None:
                t = msg.ts + cons.window_ms
                if t <= horizon:
                    timer_points.add(t)
            if not cons.negated:
                for neg in compiled.patterns[p_idx].alternatives[a_idx].negatives:
                    if neg.window_ms is not None:
                        t = msg.ts + neg.window_ms
                        if t <= horizon:
                            timer_points.add(t)

    # Worklist: (time, phase, order) — timers (phase 0) precede events (1).
    work: list[tuple[int, int, int]] = [(t, 0, 0) for t in timer_points]
    for i, msg in enumerate(messages):
        work.append((msg.ts, 1, i))
    heapq.heapify(work)
    scheduled: set[int] = set(timer_points)

    # Retained store, indexed per (pattern, alternative, constituent).  A per
    # slot start index skips the leading messages that can never match again:
    # consumed by this pattern, or at least the slot's death age old, which
    # only comes with age.
    retained: dict[tuple[int, int, int], list[Message]] = {}
    starts: dict[tuple[int, int, int], int] = {}
    consumed: list[set[int]] = [set() for _ in compiled.patterns]
    last_activation: list[int | None] = [None] * len(compiled.patterns)
    # per pattern: whether its last evaluation reported a diagnostic
    diagnosed = [False] * len(compiled.patterns)
    bounds = expiry_bounds(compiled, lifetime_ms)
    deaths = {cons.slot: death_age(cons, bounds[cons.selector.type_tag.name])
              for cp in compiled.patterns for alt in cp.alternatives for cons in alt.constituents}
    cycle = 0
    empty: list[Message] = []

    def live_slice(slot, now, skip_consumed):
        lst = retained.get(slot)
        if not lst:
            return empty
        start = starts.get(slot, 0)
        death = deaths[slot]
        while start < len(lst) and (
            (skip_consumed is not None and lst[start].id in skip_consumed)
            or death is not None and now - lst[start].ts >= death
        ):
            start += 1
        starts[slot] = start
        if skip_consumed:
            return [m for m in lst[start:] if m.id not in skip_consumed]
        return lst[start:]

    def eval_all(now: int) -> None:
        nonlocal cycle
        cycle += 1

        def get_candidates(cons, key=None):  # every live message, whatever the key
            slot = cons.slot
            return live_slice(slot, now, None if cons.negated else consumed[slot[0]])

        for cp in compiled.patterns:
            p_idx = cp.index
            if cp.debounce_ms is not None:
                last = last_activation[p_idx]
                if last is not None and now - last <= cp.debounce_ms:
                    continue
            outcome = evaluate_pattern(cp, get_candidates, now, cycle)
            if outcome.diagnostics and not diagnosed[p_idx]:
                out.diagnostics.extend(outcome.diagnostics)
            diagnosed[p_idx] = bool(outcome.diagnostics)
            if outcome.result is not None:
                consumed[p_idx].update(m.id for m in outcome.result.messages)
                last_activation[p_idx] = now
                out.results.append(outcome.result)
                if cp.debounce_ms is not None:
                    t = now + cp.debounce_ms + 1
                    if t <= horizon and t not in scheduled:
                        scheduled.add(t)
                        heapq.heappush(work, (t, 0, 0))

    while work:
        time, phase, order = heapq.heappop(work)
        if phase == 1:
            msg = messages[order]
            for cons, _, _ in routed[order]:
                retained.setdefault(cons.slot, []).append(msg)
        eval_all(time)
    return out


def _horizon(trace: list[TraceEvent]) -> int:
    last = 0
    for ev in trace:
        last = ev.to if isinstance(ev, AdvanceEvent) else ev.ts
    return last
