"""Incremental RETE-style matching engine.

A :class:`Network` owns mutable match state for one actor: per-constituent
buffers fed through shared alpha nodes, a hash index beside each keyed
buffer, per-pattern consumed counts, a timer queue realising windows,
negation deadlines and match debouncing, and an agenda of the patterns whose
state moved since their last evaluation.

Evaluation discipline: every message arrival and every group of same-due
timers is one match-cycle, at the instants the oracle evaluates, so the cycle
numbers are the oracle's.  A cycle evaluates the patterns on the agenda in
declaration order, each at most once.  Routing to a pattern's slot, a window
expiry that trims one, a negation-clear or debounce-clear timer, and
consumption put a pattern on the agenda.  Any outcome but a match takes it
off: a miss, a failed readiness gate, an active debounce, a guard rejection
or a diagnostic; until its state moves again, the oracle's evaluation of it
ends the same way.  A diagnostic is reported when it first arises, and again
only after an evaluation of the pattern ends otherwise (a match, a miss, a
guard rejection or a failed readiness gate), by the oracle's rule: once per
episode, not once per cycle.  Retention and lifetime deaths are the only
moves no timer announces: a routed message whose ``bound``, the lower of the
lifetime and its type's retention, is finite puts ``(ts + bound + 1,
pattern)`` on an expiry heap that every cycle first drains.  A death only
removes combinations, so it wakes only patterns it can change: one whose
alternatives are all delta and whose watermark is set (see below) only drops
its slots' dead heads; any other goes on the agenda.  A death never starts a
cycle, as the oracle never evaluates at one.

Every evaluation runs the decision procedure shared with the brute-force oracle
(:mod:`sprw.combine`), which checks negation clearance, unification, ``seq``
and ``interval`` on every candidate it considers, and no message's age: the
slot views of both callers yield only messages that are not
:func:`compile.dead_forever`.  The oracle offers it every such message; the
engine only narrows which candidates those are:

* The engine's slots drop their dead heads before they yield: a message only
  dies with age, so the rest of a ts-ascending buffer is live, for
  candidates and blockers alike.
* A plain positive slot keyed on the variables it shares with the other
  positives, and a negated slot keyed on its variables the positives bind,
  keep an index from key values to their messages, in buffer order.  Routing
  appends to it; the dead-head drop, window trims, consumption and gc edit
  its buckets in place.  So a join step, or a negation, fetches one bucket.
* On a delta alternative (no negation, every positive plain and keyed on the
  same variables) a combination of buffered messages can only lose validity
  as time passes: retention, lifetime and dead-message expiry only remove
  candidates, and unification, ``seq`` and ``interval`` do not depend on
  ``now``.  So once an evaluation or the readiness gate finds no
  combination, the watermark records the ``seq`` of the last routed message,
  and later evaluations search only combinations holding a newer message,
  seeded from each slot's new arrivals.  Consumption and gc keep the
  watermark, as removing messages creates no combination at or below it.  A
  guard rejection and a diagnostic clear it; the next evaluation searches in
  full.
* A windowed negation rejects a combination until its window has passed
  since the combination's newest message.  So a plain positive beside
  windowed negatives yields only its settled messages, those at least as old
  as the longest of the windows (its ``settle_ms``), found by bisection on
  ``ts``; the negation-clear timer due when a message settles marks the
  pattern for re-evaluation.  An accumulating positive yields all of its
  messages: its greedy group depends on every message it may take.
* A readiness gate skips the evaluation unless some alternative can fill
  each positive slot: the slot holds a settled message, and at least as
  many messages as a count group there needs (its ``min_group``).  A delta
  alternative whose watermark is set passes only if some message newer than
  the watermark has a non-empty bucket in every other positive's index, a
  necessary condition for a new combination.  The gate reads the raw buffers
  and buckets: a dead message there can only let it pass, and the search
  still sees only live messages.  A skip is a miss: it sets the watermark.

The slot callbacks read the clock from a one-element list, not from the
Network, so a Network holds no reference cycle and reference counting frees it.

A Network is single-writer: ingest/advance_time/gc must be serialised by the
owning context.  Returned results are immutable and may be shared freely.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from operator import attrgetter

from .combine import evaluate_pattern
from .compile import (
    AlphaRouter,
    CompiledPattern,
    CompiledProgram,
    dead_forever,
    expiry_bounds,
)
from .errors import TimeRegression
from .matching import Diagnostic, MatchResult, Message, extend_env

_EMPTY: list[Message] = []
_NO_INDEX: dict = {}
_TS = attrgetter("ts")
_SEQ = attrgetter("seq")


class Network:
    def __init__(self, compiled: CompiledProgram, lifetime_ms: int | None = None):
        self.cp = compiled
        self.lifetime_ms = lifetime_ms
        self.clock = 0
        self.cycle = 0
        self.next_ingest = 1
        self.last_seq = 0
        self.diagnostics: list[Diagnostic] = []
        # per (pattern, alternative, constituent) message lists, (ts, seq) ascending
        self.buffers: dict[tuple[int, int, int], list[Message]] = {}
        # per keyed slot: join key -> that slot's messages with the key, in
        # buffer order (no empty lists)
        self.index: dict[tuple[int, int, int], dict[tuple, list[Message]]] = {}
        self.blockers: dict[tuple[int, int, int], list[Message]] = {}
        # per pattern: the number of messages it has consumed
        self.consumed: list[int] = [0] * len(compiled.patterns)
        self.router = AlphaRouter(compiled)
        self.last_activation: list[int | None] = [None] * len(compiled.patterns)
        self._timers: list[tuple] = []  # (due, pattern, seq, payload)
        self._timer_seq = 0
        # per message type: the greatest age at which its messages are live
        self._bounds = expiry_bounds(compiled, lifetime_ms)
        # (due, pattern): a message in one of the pattern's slots dies of
        # retention or lifetime at due
        self._expiries: list[tuple[int, int]] = []
        # the patterns whose state moved since their last evaluation
        self._agenda: set[int] = set()
        # per pattern: seq of the last routed message at an evaluation that
        # found no combination, or None when the next one must search in full
        self._watermark: list[int | None] = [None] * len(compiled.patterns)
        # per pattern: whether its last evaluation reported a diagnostic
        self._diagnosed: list[bool] = [False] * len(compiled.patterns)
        # per pattern: its _slot_callbacks, built on its first use
        self._callbacks: list[tuple | None] = [None] * len(compiled.patterns)
        # [the clock of the current evaluation], for the slot callbacks
        self._now = [0]
        # per routed alpha node (by id): its targets as (pattern, slot,
        # constituent, store, timers, death), built on the node's first message
        self._routes: dict[int, tuple] = {}

    # -- ingestion -----------------------------------------------------------

    def ingest(self, type_tag, attrs, ts: int) -> tuple[Message, list[MatchResult]]:
        """Build a message with the next id/seq and run its match-cycle."""
        if ts < self.clock:
            raise TimeRegression(ts, self.clock)
        n = self.next_ingest
        self.next_ingest += 1
        msg = Message(n, n, ts, type_tag, tuple(attrs))  # id, seq, ts, type_tag, attrs
        results = self._run_timers(ts)
        self.clock = ts
        self.last_seq = n
        self._route(msg)
        results.extend(self._eval_pass())
        return msg, results

    def advance_time(self, now: int) -> list[MatchResult]:
        if now < self.clock:
            raise TimeRegression(now, self.clock)
        results = self._run_timers(now)
        self.clock = now
        return results

    # -- internals -------------------------------------------------------------

    def _route(self, msg: Message) -> None:
        ts = msg.ts
        agenda = self._agenda
        for spec in self.router.route(msg.type_tag.name, msg.attrs, ts):
            targets = self._routes.get(id(spec))
            if targets is None:
                targets = self._routes[id(spec)] = self._route_plan(spec)
            for p_idx, slot, cons, store, timers, death in targets:
                if cons.needs_local_check and extend_env(cons.bind_terms, msg, {}, {}) is None:
                    continue
                store.setdefault(slot, []).append(msg)
                if cons.join_key:
                    self.index.setdefault(slot, {}).setdefault(
                        cons.message_key(msg), []
                    ).append(msg)
                for delay, payload in timers:
                    self._schedule(ts + delay, p_idx, payload)
                if death is not None:
                    heappush(self._expiries, (ts + death, p_idx))
                agenda.add(p_idx)

    def _route_plan(self, spec) -> tuple:
        """Per target of an alpha node: where its messages go, the timers
        (delay, payload) each one sets (its own window's expiry, and one
        negation clearance per windowed negative beside a positive), and its
        :meth:`_death_age`."""
        plan = []
        for p_idx, a_idx, cons in spec.targets:
            timers = [] if cons.window_ms is None else [(cons.window_ms, cons)]
            if not cons.negated:
                timers += [
                    (neg.window_ms, None)
                    for neg in self.cp.patterns[p_idx].alternatives[a_idx].negatives
                    if neg.window_ms is not None
                ]
            store = self.blockers if cons.negated else self.buffers
            plan.append((p_idx, cons.slot, cons, store, tuple(timers), self._death_age(cons)))
        return tuple(plan)

    def _death_age(self, cons) -> int | None:
        """The age at which a message in ``cons``'s slot dies of retention or
        lifetime before its window's expiry timer trims it, or None when it
        never does."""
        bound = self._bounds[cons.selector.type_tag.name]
        if bound is not None and (cons.window_ms is None or bound + 1 < cons.window_ms):
            return bound + 1
        return None

    def _schedule(self, due: int, pattern_idx: int, payload) -> None:
        """Queue a timer; ``payload`` is the windowed constituent whose slot it
        trims, or None for a pure time flip (negation clearance or debounce
        expiry).  The unique sequence number keeps heap comparisons off the
        payload."""
        self._timer_seq += 1
        heappush(self._timers, (due, pattern_idx, self._timer_seq, payload))

    def _run_timers(self, upto: int) -> list[MatchResult]:
        """Fire every timer due by ``upto``, one match-cycle per due time."""
        results: list[MatchResult] = []
        timers = self._timers
        agenda = self._agenda
        while timers and timers[0][0] <= upto:
            due = timers[0][0]
            while timers and timers[0][0] == due:
                _, p_idx, _, cons = heappop(timers)
                if cons is None:
                    # a pure time flip: the pattern must be re-examined even
                    # though no buffer content moved
                    agenda.add(p_idx)
                    continue
                # expired window: the slot's contents can be dropped
                buf = (self.blockers if cons.negated else self.buffers).get(cons.slot)
                # ts ascending: the expired messages are a prefix
                expired = bisect_right(buf, due - cons.window_ms, key=_TS) if buf else 0
                if expired:
                    _drop_heads(buf, expired, cons, self.index)
                    agenda.add(p_idx)
            self.clock = due
            results.extend(self._eval_pass())
        return results

    def _eval_pass(self) -> list[MatchResult]:
        """One match-cycle at the current clock over the agenda."""
        now = self.clock
        self.cycle += 1
        self._now[0] = now
        agenda = self._agenda
        watermark = self._watermark
        diagnosed = self._diagnosed
        patterns = self.cp.patterns
        callbacks = self._callbacks
        expiries = self._expiries
        while expiries and expiries[0][0] <= now:
            p_idx = heappop(expiries)[1]
            # a death only removes combinations: a delta pattern whose last
            # evaluation found none still finds none, so only its heads go,
            # even if it is on the agenda, as its readiness gate reads the
            # raw buffers
            if watermark[p_idx] is None or not all(a.delta for a in patterns[p_idx].alternatives):
                agenda.add(p_idx)
            else:
                (callbacks[p_idx] or self._slot_callbacks(patterns[p_idx]))[2]()
        out: list[MatchResult] = []
        if not agenda:
            return out
        buffers = self.buffers
        index = self.index
        for p_idx in sorted(agenda):
            cp = patterns[p_idx]
            if cp.debounce_ms is not None:
                last = self.last_activation[p_idx]
                if last is not None and now - last <= cp.debounce_ms:
                    agenda.discard(p_idx)  # until its debounce-clear timer
                    continue
            # cheap readiness gate: some alternative must be able to fill each
            # positive slot before the full decision procedure is worth running;
            # after a fruitless evaluation, a delta one needs a new message with
            # a partner in every other slot
            wm = watermark[p_idx]
            for alt in cp.alternatives:
                if alt.delta and wm is not None:
                    if _partnered_arrival(alt, buffers, index, wm):
                        break
                    continue
                for cons in alt.positives:
                    buf = buffers.get(cons.slot, _EMPTY)
                    settle = cons.settle_ms
                    if len(buf) < cons.min_group or settle is not None and buf[0].ts > now - settle:
                        break
                else:
                    break
            else:
                # no combination exists, as after a miss
                watermark[p_idx] = self.last_seq
                diagnosed[p_idx] = False
                agenda.discard(p_idx)
                continue

            get_candidates, lookup, _ = callbacks[p_idx] or self._slot_callbacks(cp)
            outcome = evaluate_pattern(
                cp, get_candidates, now, self.cycle, lookup, watermark[p_idx]
            )
            # a match keeps the pattern on the agenda
            if outcome.result is not None:
                self._consume(cp, outcome.result)
                out.append(outcome.result)
                diagnosed[p_idx] = False
                continue
            agenda.discard(p_idx)
            if outcome.diagnostics:
                # reported once, until an evaluation ends otherwise
                if not diagnosed[p_idx]:
                    diagnosed[p_idx] = True
                    self.diagnostics.extend(outcome.diagnostics)
                watermark[p_idx] = None
            else:
                diagnosed[p_idx] = False
                watermark[p_idx] = None if outcome.guard_failed else self.last_seq
        return out

    def _slot_callbacks(self, cp: CompiledPattern):
        """The decision procedure's view of one pattern's slots at the
        current clock: (get_candidates, lookup, drop_dead), where lookup is
        None unless some constituent is keyed, and drop_dead drops the dead
        head of every slot; built once per pattern.

        Every message they yield is live: each slot follows a dropped dead
        head, as a message only dies with age and the buffers ascend in ts.
        A plain positive beside windowed negatives yields only its messages
        at least ``settle_ms`` old, the only ones that can join a valid
        combination yet; a negated slot has no ``settle_ms``."""
        index = self.index
        clock = self._now
        # per alternative, per constituent: (store, slot, constituent, bound,
        # mortal, settle), where bound is the expiry bound of the slot's type
        # and mortal says whether the slot can hold a dead message that its
        # window's expiry timers have not trimmed
        views = [
            [
                (self.blockers if c.negated else self.buffers, c.slot, c,
                 self._bounds[c.selector.type_tag.name],
                 c.slot_bound_ms is not None or self._death_age(c) is not None,
                 c.settle_ms)
                for c in alt.constituents
            ]
            for alt in cp.alternatives
        ]

        def live(view):
            """The slot's buffer with its dead head dropped (index too)."""
            store, slot, cons, bound, mortal, _ = view
            buf = store.get(slot, _EMPTY)
            if mortal and buf and dead_forever(buf[0], cons, bound, clock[0]):
                now = clock[0]
                drop = 1
                while drop < len(buf) and dead_forever(buf[drop], cons, bound, now):
                    drop += 1
                _drop_heads(buf, drop, cons, index)
            return buf

        def get_candidates(a_idx, c_idx):
            view = views[a_idx][c_idx]
            buf = live(view)
            settle = view[5]
            return buf if settle is None or not buf else _settled(buf, clock[0] - settle)

        def lookup(a_idx, c_idx, key):
            view = views[a_idx][c_idx]
            live(view)
            slot, settle = view[1], view[5]
            bucket = index.get(slot, _NO_INDEX).get(key, _EMPTY)
            return bucket if settle is None else _settled(bucket, clock[0] - settle)

        every_view = [v for alt_views in views for v in alt_views]

        def drop_dead():
            for view in every_view:
                live(view)

        keyed = any(c.join_key for alt in cp.alternatives for c in alt.constituents)
        built = self._callbacks[cp.index] = (get_candidates, lookup if keyed else None, drop_dead)
        return built

    def _consume(self, cp: CompiledPattern, result: MatchResult) -> None:
        p_idx = cp.index
        msgs = result.messages  # distinct: each counts once
        self.consumed[p_idx] += len(msgs)
        buffers = self.buffers
        for alt in cp.alternatives:
            for cons in alt.positives:
                buf = buffers.get(cons.slot)
                if not buf:
                    continue
                tag = cons.selector.type_tag.name
                # buffers and buckets ascend in seq: find each message of the
                # slot's type by bisection
                for m in msgs:
                    if m.type_tag.name != tag:
                        continue
                    i = bisect_left(buf, m.seq, key=_SEQ)
                    if i < len(buf) and buf[i] is m:
                        del buf[i]
                        if cons.join_key:
                            keys = self.index[cons.slot]
                            key = cons.message_key(m)
                            bucket = keys[key]
                            del bucket[bisect_left(bucket, m.seq, key=_SEQ)]
                            if not bucket:
                                del keys[key]
        # the watermark stays: removing messages creates no combination
        self.last_activation[p_idx] = result.at
        if cp.debounce_ms is not None:
            self._schedule(result.at + cp.debounce_ms + 1, p_idx, None)

    # -- garbage collection -----------------------------------------------------

    def gc(self, now: int) -> int:
        """Drop every buffered message past its lifetime or retention bound.

        Returns the number of distinct messages removed.  Idempotent at a
        fixed ``now``."""
        removed: set[int] = set()
        for store in (self.buffers, self.blockers):
            for (p_idx, a_idx, c_idx), buf in store.items():
                bound = self._bounds[buf[0].type_tag.name] if buf else None
                if bound is None:
                    continue
                # a message only dies with age: the dead ones are a prefix
                drop = bisect_left(buf, now - bound, key=_TS)
                if drop:
                    removed.update(m.id for m in buf[:drop])
                    cons = self.cp.patterns[p_idx].alternatives[a_idx].constituents[c_idx]
                    _drop_heads(buf, drop, cons, self.index)
                    # with ``now`` past the clock, the dropped messages may
                    # still be live at the clock
                    self._agenda.add(p_idx)
        # the watermarks stay: removing messages creates no combination
        return len(removed)

    # -- introspection ------------------------------------------------------------

    def buffered_total(self) -> int:
        return sum(len(b) for b in self.buffers.values()) + sum(
            len(b) for b in self.blockers.values()
        )


def _drop_heads(buf: list[Message], drop: int, cons, index) -> None:
    """Delete the first ``drop`` messages of ``cons``'s buffer ``buf``, and
    from its index when the slot is keyed: each heads its bucket, as buckets
    keep buffer order."""
    if cons.join_key:
        keys = index[cons.slot]
        for m in buf[:drop]:
            key = cons.message_key(m)
            bucket = keys[key]
            del bucket[0]
            if not bucket:
                del keys[key]
    del buf[:drop]


def _partnered_arrival(alt, buffers, index, watermark: int) -> bool:
    """Whether a message of delta alternative ``alt`` newer than ``watermark``
    has a non-empty bucket in every other positive's index.  Every new
    combination holds such a message, as every positive is keyed on the same
    variables.  The raw buffers and buckets may still hold dead messages,
    which can only make the answer True."""
    positives = alt.positives
    for cons in positives:
        buf = buffers.get(cons.slot, _EMPTY)
        i = len(buf)
        while i and buf[i - 1].seq > watermark:
            i -= 1
            attrs = buf[i].attrs
            for k, positions in cons.partner_keys:
                keys = index.get(positives[k].slot)
                if not keys or tuple([attrs[pos] for pos in positions]) not in keys:
                    break
            else:
                return True
    return False


def _settled(msgs: list[Message], upto: int) -> list[Message]:
    """The leading messages of a ts-ascending list with ``ts <= upto``."""
    end = bisect_right(msgs, upto, key=_TS)
    return msgs if end == len(msgs) else msgs[:end]


def replay_trace(
    compiled: CompiledProgram, events, lifetime_ms: int | None = None
) -> tuple[list[MatchResult], Network]:
    """Feed a loaded trace straight through a network under the virtual clock."""
    from .tracefile import AdvanceEvent

    net = Network(compiled, lifetime_ms=lifetime_ms)
    matches: list[MatchResult] = []
    for ev in events:
        if isinstance(ev, AdvanceEvent):
            matches.extend(net.advance_time(ev.to))
        else:
            _, results = net.ingest(ev.type_tag, ev.attrs, ev.ts)
            matches.extend(results)
    return matches, net
