"""Actor hosting around the engine.

An :class:`ActorCell` owns one network plus a raw FIFO inbox, a reaction
table, and opaque state threaded through reaction callbacks.  ``deliver`` is
the only operation other execution contexts may call (append-only queue);
``step``/``react_to``/``remove`` belong to the owner.

Reactions come in two kinds: host callbacks ``fn(messages, intermediates,
state) -> new_state`` (library mode) and *emit* reactions that append an
output record and leave the state untouched (harness mode).  Reactions bound
to one pattern fire in binding order, each receiving the state returned by
the previous one.  Rebinding during a step is deferred to the step's end.

``cell.outputs`` is the one record of what fired: an emit reaction, or a
match with no reaction bound, appends its output record there.  The cell
keeps no other history of matches, so a long-running host drains
``outputs`` after each step to keep the actor's memory bounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .compile import CompiledProgram, compile_program
from .errors import ActorError
from .expand import expand
from .matching import Diagnostic, MatchResult
from .engine import Network
from .nodes import Program
from .parser import parse_program
from .tracefile import output_record
from .values import Symbol


@dataclass(slots=True)
class ReactionRef:
    label: str
    fn: Callable | None = None  # None = emit record


class FiredReaction(NamedTuple):
    label: str
    match: MatchResult
    state_before: Any
    state_after: Any


@dataclass(slots=True)
class ActorCell:
    compiled: CompiledProgram
    network: Network
    reactions: dict[str, list[ReactionRef]]
    state: Any = None
    outputs: list[dict] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    inbox: deque = field(default_factory=deque)
    _in_step: bool = False
    _deferred: list = field(default_factory=list)  # (function, args after the cell)


def spawn(program: Program | str, initial_state: Any = None, lifetime_ms: int | None = None) -> ActorCell:
    """Create an actor from source text or a parsed program.

    Reaction bindings declared in the program are pre-bound in order as emit
    reactions; host callbacks can be attached afterwards with ``react_to``.
    """
    if isinstance(program, str):
        program = parse_program(program)
    compiled = compile_program(expand(program))
    reactions: dict[str, list[ReactionRef]] = {}
    for b in compiled.bindings:  # expand has checked that each names a pattern
        reactions.setdefault(b.pattern, []).append(ReactionRef(b.label))
    return ActorCell(
        compiled=compiled,
        network=Network(compiled, lifetime_ms=lifetime_ms),
        reactions=reactions,
        state=initial_state,
    )


def react_to(cell: ActorCell, pattern_name: str, label: str, fn: Callable | None = None) -> None:
    """Bind one more reaction to a pattern (takes effect at the next match)."""
    if cell._in_step:
        cell._deferred.append((react_to, pattern_name, label, fn))
        return
    if cell.compiled.source.pattern_named(pattern_name) is None:
        raise ActorError("UnknownPattern", f"no pattern {pattern_name!r}")
    bucket = cell.reactions.setdefault(pattern_name, [])
    if any(r.label == label for r in bucket):
        raise ActorError("DuplicateReaction", f"label {label!r} already bound to {pattern_name!r}")
    bucket.append(ReactionRef(label, fn))


def remove(cell: ActorCell, label: str, pattern_name: str) -> None:
    """Unbind one reaction; removing an absent label is an error, not a no-op."""
    if cell._in_step:
        cell._deferred.append((remove, label, pattern_name))
        return
    if cell.compiled.source.pattern_named(pattern_name) is None:
        raise ActorError("UnknownPattern", f"no pattern {pattern_name!r}")
    bucket = cell.reactions.get(pattern_name, [])
    for i, r in enumerate(bucket):
        if r.label == label:
            del bucket[i]
            return
    raise ActorError("UnknownReaction", f"{label!r} is not bound to {pattern_name!r}")


def remove_reactions(cell: ActorCell, pattern_name: str) -> None:
    if cell._in_step:
        cell._deferred.append((remove_reactions, pattern_name))
        return
    if cell.compiled.source.pattern_named(pattern_name) is None:
        raise ActorError("UnknownPattern", f"no pattern {pattern_name!r}")
    cell.reactions[pattern_name] = []


def deliver(cell: ActorCell, type_tag: Symbol | str, attrs, ts: int | None = None) -> None:
    """Append a raw message to the actor's inbox (safe for other contexts)."""
    tag = Symbol(type_tag) if isinstance(type_tag, str) else type_tag
    cell.inbox.append((tag, tuple(attrs), ts))


def step(cell: ActorCell, now: int) -> list[FiredReaction]:
    """Drain the inbox, advance the virtual clock, fire reactions.

    Each inbox message is stamped max(carried ts, clock) and runs one full
    match-cycle; then pending timers up to ``now`` fire.  Reactions execute
    sequentially in match order then binding order, threading actor state; a
    failing callback records a diagnostic and aborts the rest of the step
    with the state rolled back to its own before-state.
    """
    cell._in_step = True
    fired: list[FiredReaction] = []
    try:
        matches: list[MatchResult] = []
        net = cell.network
        while cell.inbox:
            tag, attrs, ts = cell.inbox.popleft()
            stamped = net.clock if ts is None else max(ts, net.clock)
            _, results = net.ingest(tag, attrs, stamped)
            matches.extend(results)
        # every pending timer falls due after the clock (each delay is
        # positive), so only a clock that moves can fire one
        if now > net.clock:
            matches.extend(net.advance_time(now))

        for match in matches:
            refs = list(cell.reactions.get(match.pattern, ()))
            if not refs:
                cell.outputs.append(output_record(match, None))
                continue
            for ref in refs:
                before = cell.state
                if ref.fn is None:  # an emit reaction
                    cell.outputs.append(output_record(match, ref.label))
                    after = before
                else:
                    try:
                        after = ref.fn(list(match.messages), dict(match.intermediates), before)
                    except Exception as err:  # reaction failures must not kill the actor
                        cell.diagnostics.append(
                            Diagnostic("ReactionFailure", match.pattern, match.at,
                                       f"{ref.label}: {err}")
                        )
                        return fired
                cell.state = after
                fired.append(FiredReaction(ref.label, match, before, after))
        return fired
    finally:
        cell._in_step = False
        deferred = cell._deferred
        if deferred:
            cell._deferred = []
        for op, *args in deferred:
            op(cell, *args)
