"""Incremental RETE-style matching engine.

A :class:`Network` owns mutable match state for one actor: per-constituent
buffers fed through shared alpha nodes, a hash index beside each keyed
buffer, a timer queue realising windows, negation deadlines and match
debouncing, and an agenda of the patterns whose state moved since their last
evaluation.

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
episode, not once per cycle.

Every slot has one death age (:func:`compile.death_age`): the age at which a
message there can never take part in a combination again.  A message dying
at its window's expiry is dropped by that expiry's timer, which wakes the
pattern.  Any other death, past the slot bound or the ``bound`` of the
message's type (the lower of the lifetime and the type's retention), is a
move no timer announces: routing puts ``(ts + death age, pattern, slot)`` on
an expiry heap, and every cycle first drains it, dropping each such slot's
dead messages.  So a dead message is gone by the start of the first cycle at
or after its death.  A death past ``bound`` wakes the pattern, unless its
alternatives are all delta and its watermark is set (see below): a death
there can only remove combinations, and the last evaluation found none.  A
death past the slot bound wakes nothing, as such a message is in no valid
combination.  A death never starts a cycle, as the oracle never evaluates at
one.

Every evaluation runs the decision procedure shared with the brute-force oracle
(:mod:`sprw.combine`), which checks negation clearance, unification, ``seq``
and ``interval`` on every candidate it considers, and no message's age: the
slot views of both callers yield only messages younger than their slot's
death age.  The oracle offers it every such message; the engine only
narrows which candidates those are:

* The engine's slots are live by construction: every cycle reads them after
  their dead messages are dropped, so the slot views check no age, for
  candidates and blockers alike.
* A plain positive slot keyed on the variables it shares with the other
  positives, and a negated slot keyed on its variables the positives bind,
  keep an index from key values to their messages, in buffer order.  Routing
  appends to it; dropping the dead, consumption and gc edit its buckets in
  place.  So a join step, or a negation, fetches one bucket.
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
  each positive slot: its view yields at least ``min_group`` messages, as
  many as a count group there needs (1, so a settled one, where ``settle_ms``
  is set).  A delta alternative whose watermark is set passes only if some
  message newer than the watermark has a non-empty bucket in every other
  positive's index, a necessary condition for a new combination.  A skip is
  a miss: it sets the watermark.

A match consumes each of its messages, by type, from the routed positive
slots of its pattern in every alternative: a per-pattern map from type name
to those slots, filled as each is first routed, leads only to them.

One slot view, built with the Network, serves every pattern: it addresses a
slot by its constituent, reads the index bucket of a join key when the
search passes one and else the store ``negated`` picks, and cuts to the
settled prefix by ``settle_ms``.  The view reads the clock from a
one-element list, not from the Network, so a Network holds no reference
cycle and reference counting frees it.

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
    death_age,
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
        self.clock = 0
        self.cycle = 0
        self.last_seq = 0
        self.diagnostics: list[Diagnostic] = []
        # per (pattern, alternative, constituent) message lists, (ts, seq) ascending
        self.buffers: dict[tuple[int, int, int], list[Message]] = {}
        # per keyed slot: join key -> that slot's messages with the key, in
        # buffer order (no empty lists)
        self.index: dict[tuple[int, int, int], dict[tuple, list[Message]]] = {}
        self.blockers: dict[tuple[int, int, int], list[Message]] = {}
        self.router = AlphaRouter(compiled)
        self.last_activation: list[int | None] = [None] * len(compiled.patterns)
        # (due, pattern, payload): the payload is the windowed slot whose
        # dead messages the timer drops, or () for a pure time flip (negation
        # clearance or debounce expiry).  Timers due together fire in one
        # cycle, in any order
        self._timers: list[tuple] = []
        # per message type: the greatest age at which its messages are live
        self._bounds = expiry_bounds(compiled, lifetime_ms)
        # (due, pattern, slot): a message in the slot dies at due, before
        # any window expiry
        self._expiries: list[tuple[int, int, tuple]] = []
        # the patterns whose state moved since their last evaluation
        self._agenda: set[int] = set()
        # per pattern: seq of the last routed message at an evaluation that
        # found no combination, or None when the next one must search in full
        self._watermark: list[int | None] = [None] * len(compiled.patterns)
        # per pattern: whether its last evaluation reported a diagnostic
        self._diagnosed: list[bool] = [False] * len(compiled.patterns)
        # per pattern: whether every alternative is delta (see _eval_pass)
        self._all_delta = [all(a.delta for a in p.alternatives) for p in compiled.patterns]
        # [the clock of the current evaluation], for the slot view
        self._now = [0]
        self._view = _slot_view(self.buffers, self.blockers, self.index, self._now)
        # per routed alpha node (by id): its _route_plan, built on the node's
        # first message
        self._routes: dict[int, tuple] = {}
        # per routed slot: (buffer, index, index key, death age, whether a
        # death there wakes the pattern); index and key are None if unkeyed
        self._slots: dict[tuple, tuple] = {}
        # per pattern: type name -> its routed positive slots (buffer, index, key)
        self._consumers: dict[int, dict[str, list[tuple]]] = {}

    # -- ingestion -----------------------------------------------------------

    def ingest(self, type_tag, attrs, ts: int) -> tuple[Message, list[MatchResult]]:
        """Build a message with the next id/seq and run its match-cycle."""
        if ts < self.clock:
            raise TimeRegression(ts, self.clock)
        n = self.last_seq + 1
        msg = Message(n, n, ts, type_tag, tuple(attrs))  # id, seq, ts, type_tag, attrs
        timers = self._timers
        results = self._run_timers(ts) if timers and timers[0][0] <= ts else []
        self.clock = ts
        # only now: a timer cycle's watermark must not cover the new message
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
        attrs = msg.attrs
        agenda = self._agenda
        for spec in self.router.route(msg.type_tag.name, attrs, ts):
            targets = self._routes.get(id(spec))
            if targets is None:
                targets = self._routes[id(spec)] = self._route_plan(spec)
            for p_idx, slot, check, buf, keys, key_of, timers, death in targets:
                if check and extend_env(check, msg, {}, {}) is None:
                    continue
                buf.append(msg)
                if key_of is not None:
                    key = key_of(attrs)
                    bucket = keys.get(key)
                    if bucket is None:
                        keys[key] = [msg]
                    else:
                        bucket.append(msg)
                for delay, payload in timers:
                    heappush(self._timers, (ts + delay, p_idx, payload))
                if death is not None:
                    heappush(self._expiries, (ts + death, p_idx, slot))
                agenda.add(p_idx)

    def _route_plan(self, spec) -> tuple:
        """Per target of an alpha node: (pattern, slot, the bind terms to check
        when its selector repeats a variable, the slot's buffer, index and
        index key, the timers (delay, payload) each message sets, the slot's
        death age unless its window's expiry timer announces it).  The timers
        are its window's expiry, and one negation clearance per windowed
        negative beside a positive.  Fills ``_slots`` and ``_consumers``."""
        plan = []
        for p_idx, a_idx, cons in spec.targets:
            slot = cons.slot
            bound = self._bounds[cons.selector.type_tag.name]
            death = death_age(cons, bound)
            timers = [] if cons.window_ms is None else [(cons.window_ms, slot)]
            if not cons.negated:
                timers += [
                    (neg.window_ms, ())
                    for neg in self.cp.patterns[p_idx].alternatives[a_idx].negatives
                    if neg.window_ms is not None
                ]
            buf = (self.blockers if cons.negated else self.buffers).setdefault(slot, [])
            keys = self.index.setdefault(slot, {}) if cons.join_key else None
            self._slots[slot] = (buf, keys, cons.attrs_key, death,
                                 bound is not None and death == bound + 1)
            if not cons.negated:
                self._consumers.setdefault(p_idx, {}).setdefault(
                    cons.selector.type_tag.name, []).append((buf, keys, cons.attrs_key))
            plan.append((p_idx, slot, cons.needs_local_check and cons.bind_terms, buf, keys,
                         cons.attrs_key, tuple(timers),
                         None if death == cons.window_ms else death))
        return tuple(plan)

    def _run_timers(self, upto: int) -> list[MatchResult]:
        """Fire every timer due by ``upto``, one match-cycle per due time."""
        results: list[MatchResult] = []
        timers = self._timers
        agenda = self._agenda
        while timers and timers[0][0] <= upto:
            due = timers[0][0]
            while timers and timers[0][0] == due:
                _, p_idx, slot = heappop(timers)
                if not slot:
                    # a pure time flip: the pattern must be re-examined even
                    # though no buffer content moved
                    agenda.add(p_idx)
                    continue
                if self._drop_expired(slot, due):
                    agenda.add(p_idx)
            self.clock = due
            results.extend(self._eval_pass())
        return results

    def _drop_expired(self, slot, now: int) -> int:
        """Drop the messages of a routed ``slot`` dead at ``now``, those at
        least its death age old: a prefix, as the buffers ascend in ts.
        Returns how many."""
        buf, keys, key_of, death, _ = self._slots[slot]
        dead = bisect_right(buf, now - death, key=_TS) if buf else 0
        if dead:
            _drop_heads(buf, dead, keys, key_of)
        return dead

    def _eval_pass(self) -> list[MatchResult]:
        """One match-cycle at the current clock over the agenda."""
        now = self.clock
        self.cycle += 1
        self._now[0] = now
        agenda = self._agenda
        watermark = self._watermark
        diagnosed = self._diagnosed
        expiries = self._expiries
        while expiries and expiries[0][0] <= now:
            _, p_idx, slot = heappop(expiries)
            self._drop_expired(slot, now)
            # only retention and lifetime deaths wake (see the module
            # docstring); a delta pattern that found none still finds none
            if self._slots[slot][4] and (watermark[p_idx] is None or not self._all_delta[p_idx]):
                agenda.add(p_idx)
        out: list[MatchResult] = []
        if not agenda:
            return out
        patterns = self.cp.patterns
        get_candidates = self._view
        buffers = self.buffers
        index = self.index
        for p_idx in sorted(agenda) if len(agenda) > 1 else list(agenda):
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
                    if len(get_candidates(cons)) < cons.min_group:
                        break
                else:
                    break
            else:
                # no combination exists, as after a miss
                watermark[p_idx] = self.last_seq
                diagnosed[p_idx] = False
                agenda.discard(p_idx)
                continue

            outcome = evaluate_pattern(cp, get_candidates, now, self.cycle, watermark[p_idx])
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

    def _consume(self, cp: CompiledPattern, result: MatchResult) -> None:
        p_idx = cp.index
        consumers = self._consumers[p_idx]
        for m in result.messages:
            # every routed positive slot of the message's type may hold it;
            # buffers and buckets ascend in seq, so bisection finds it
            for buf, keys, key_of in consumers[m.type_tag.name]:
                i = bisect_left(buf, m.seq, key=_SEQ)
                if i < len(buf) and buf[i] is m:
                    del buf[i]
                    if key_of is not None:
                        key = key_of(m.attrs)
                        bucket = keys[key]
                        del bucket[bisect_left(bucket, m.seq, key=_SEQ)]
                        if not bucket:
                            del keys[key]
        # the watermark stays: removing messages creates no combination
        self.last_activation[p_idx] = result.at
        if cp.debounce_ms is not None:
            heappush(self._timers, (result.at + cp.debounce_ms + 1, p_idx, ()))

    # -- garbage collection -----------------------------------------------------

    def gc(self, now: int) -> int:
        """Drop every buffered message its slot's death age makes dead at
        ``now``.

        Returns the number of distinct messages removed.  Idempotent at a
        fixed ``now``."""
        removed: set[int] = set()
        for slot, (buf, keys, key_of, death, _) in self._slots.items():
            if death is None or not buf:
                continue
            # a message only dies with age: the dead ones are a prefix
            drop = bisect_right(buf, now - death, key=_TS)
            if drop:
                removed.update(m.id for m in buf[:drop])
                _drop_heads(buf, drop, keys, key_of)
                # with ``now`` past the clock, the dropped messages may
                # still be live at the clock
                self._agenda.add(slot[0])
        # the watermarks stay: removing messages creates no combination
        return len(removed)

    # -- introspection ------------------------------------------------------------

    def buffered_total(self) -> int:
        return sum(len(buf) for buf, *_ in self._slots.values())


def _drop_heads(buf: list[Message], drop: int, keys, key_of) -> None:
    """Delete the first ``drop`` messages of a slot's buffer ``buf``, and from
    its index ``keys`` when the slot is keyed (``key_of`` is its
    ``attrs_key``): each heads its bucket, as buckets keep buffer order."""
    if key_of is not None:
        for m in buf[:drop]:
            key = key_of(m.attrs)
            bucket = keys[key]
            del bucket[0]
            if not bucket:
                del keys[key]
    del buf[:drop]


def _partnered_arrival(alt, buffers, index, watermark: int) -> bool:
    """Whether a message of delta alternative ``alt`` newer than ``watermark``
    has a non-empty bucket in every other positive's index.  Every new
    combination holds such a message, as every positive is keyed on the same
    variables."""
    positives = alt.positives
    for cons in positives:
        buf = buffers.get(cons.slot, _EMPTY)
        i = len(buf)
        while i and buf[i - 1].seq > watermark:
            i -= 1
            attrs = buf[i].attrs
            for k, key_of in cons.partner_keys:
                keys = index.get(positives[k].slot)
                if not keys or key_of(attrs) not in keys:
                    break
            else:
                return True
    return False


def _slot_view(buffers, blockers, index, clock):
    """The decision procedure's view of every slot at ``clock[0]``,
    ``get_candidates(cons, key=None)``, addressing a slot by its constituent:
    the slot's store, or the index bucket of its join ``key`` when given.

    It reads the slots as they are: a cycle drops every dead message before
    it evaluates.  A plain positive beside windowed negatives yields only its
    messages at least ``settle_ms`` old, the only ones that can join a valid
    combination yet; a negated slot has no ``settle_ms``."""

    def get_candidates(cons, key=None):
        if key is None:
            msgs = (blockers if cons.negated else buffers).get(cons.slot, _EMPTY)
        else:
            msgs = index.get(cons.slot, _NO_INDEX).get(key, _EMPTY)
        settle = cons.settle_ms
        return msgs if settle is None or not msgs else _settled(msgs, clock[0] - settle)

    return get_candidates


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
