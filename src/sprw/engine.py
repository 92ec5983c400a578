"""Incremental RETE-style matching engine.

A :class:`Network` owns mutable match state for one actor: per-constituent
buffers fed through shared alpha nodes, a hash index beside each keyed
buffer, per-pattern consumed sets, and a timer queue realising windows,
negation deadlines and match debouncing.

Evaluation discipline: every message arrival and every group of same-due
timers is one match-cycle; each cycle runs over all pattern nodes in
declaration order and each pattern activates at most once per cycle.  Every
evaluation runs the decision procedure shared with the brute-force oracle
(:mod:`sprw.combine`), which re-checks every time-sensitive predicate
(windows, negation clearance, retention, lifetime) on every candidate it
considers.  The engine only narrows which candidates that is:

* A plain positive slot keyed on the variables it shares with the other
  positives keeps an index from key values to its messages, in buffer order.
  Routing appends to it, the dead-head drop trims it, and consumption and
  gc rebuild it, so a join step fetches one bucket instead of the buffer.
* On a delta alternative (no negation, every positive plain and keyed on the
  same variables) a combination of buffered messages can only lose validity
  as time passes: retention, lifetime and dead-message expiry only remove
  candidates, and unification, ``seq`` and ``interval`` do not depend on
  ``now``.  So once an evaluation finds no combination, the pattern's
  watermark records the ``seq`` of the last routed message, and later
  evaluations search only combinations holding a newer message, seeded from
  each slot's new arrivals.  Consumption, a guard rejection, a diagnostic
  and gc clear the watermark, and the next evaluation searches in full.

A Network is single-writer: insert/advance_time/gc must be serialised by the
owning context.  Returned results are immutable and may be shared freely.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .combine import evaluate_pattern
from .compile import AlphaRouter, CompiledPattern, CompiledProgram, eligibility_predicate
from .errors import SprwError, TimeRegression
from .matching import Diagnostic, MatchResult, Message, extend_env

_WINDOW_EXPIRY = 0
_NEGATION_CLEAR = 1
_DEBOUNCE_CLEAR = 2

_EMPTY: list[Message] = []
_NO_INDEX: dict = {}


class Network:
    def __init__(
        self,
        compiled: CompiledProgram,
        lifetime_ms: int | None = None,
        on_guard_false: Callable | None = None,
    ):
        self.cp = compiled
        self.lifetime_ms = lifetime_ms
        self.on_guard_false = on_guard_false
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
        self.consumed: list[set[int]] = [set() for _ in compiled.patterns]
        self.router = AlphaRouter(compiled)
        self.last_activation: list[int | None] = [None] * len(compiled.patterns)
        self._timers: list[tuple[int, int, int, int, tuple]] = []
        self._timer_seq = 0
        # per pattern: seq of the last routed message at an evaluation that
        # found no combination, or None when the next one must search in full
        self._watermark: list[int | None] = [None] * len(compiled.patterns)
        # per pattern: its _slot_callbacks, built on its first evaluation
        self._callbacks: list[tuple | None] = [None] * len(compiled.patterns)
        self._versions: list[int] = [0] * len(compiled.patterns)
        self._miss_cache: list[int | None] = [None] * len(compiled.patterns)
        # patterns whose outcome can flip between state changes (finite
        # retention on plain slots, or any lifetime): evaluated every cycle
        self._always_eval = [
            cp for cp in compiled.patterns if not cp.fastpath or lifetime_ms is not None
        ]
        # True when the last full pass produced no matches, so a timer group
        # that moved nothing cannot enable one either (leftover combinations
        # after a match keep this False until the next full pass)
        self._clean = False

    # -- ingestion -----------------------------------------------------------

    def ingest(self, type_tag, attrs, ts: int) -> tuple[Message, list[MatchResult]]:
        """Build a message with the next id/seq and run its match-cycle."""
        n = self.next_ingest
        self.next_ingest += 1
        msg = Message(id=n, seq=n, ts=ts, type_tag=type_tag, attrs=tuple(attrs))
        return msg, self.insert(msg)

    def insert(self, msg: Message) -> list[MatchResult]:
        if msg.ts < self.clock:
            raise TimeRegression(msg.ts, self.clock)
        if msg.seq <= self.last_seq:
            raise SprwError(f"sequence number {msg.seq} not increasing")
        results = self._run_timers(msg.ts)
        self.clock = msg.ts
        self.last_seq = msg.seq
        self._route(msg)
        results.extend(self._eval_pass())
        return results

    def advance_time(self, now: int) -> list[MatchResult]:
        if now < self.clock:
            raise TimeRegression(now, self.clock)
        results = self._run_timers(now)
        self.clock = now
        return results

    # -- internals -------------------------------------------------------------

    def _route(self, msg: Message) -> None:
        for spec in self.router.route(msg.type_tag.name, msg.attrs, msg.ts):
            for p_idx, a_idx, cons in spec.targets:
                if cons.needs_local_check and extend_env(cons.bind_terms, msg, {}, {}) is None:
                    continue
                slot = (p_idx, a_idx, cons.cons_index)
                if cons.negated:
                    self.blockers.setdefault(slot, []).append(msg)
                    if cons.window_ms is not None:
                        self._schedule(
                            msg.ts + cons.window_ms, p_idx, _NEGATION_CLEAR, (a_idx, cons.cons_index)
                        )
                else:
                    self.buffers.setdefault(slot, []).append(msg)
                    if cons.join_key:
                        self.index.setdefault(slot, {}).setdefault(
                            cons.message_key(msg), []
                        ).append(msg)
                    if cons.window_ms is not None:
                        self._schedule(
                            msg.ts + cons.window_ms, p_idx, _WINDOW_EXPIRY, (a_idx, cons.cons_index)
                        )
                    for neg in self.cp.patterns[p_idx].alternatives[a_idx].negatives:
                        if neg.window_ms is not None:
                            self._schedule(
                                msg.ts + neg.window_ms, p_idx, _NEGATION_CLEAR, ()
                            )
                self._versions[p_idx] += 1

    def _schedule(self, due: int, pattern_idx: int, kind: int, payload: tuple) -> None:
        self._timer_seq += 1
        heapq.heappush(self._timers, (due, pattern_idx, self._timer_seq, kind, payload))

    def _run_timers(self, upto: int) -> list[MatchResult]:
        results: list[MatchResult] = []
        while self._timers and self._timers[0][0] <= upto:
            due = self._timers[0][0]
            batch = []
            while self._timers and self._timers[0][0] == due:
                batch.append(heapq.heappop(self._timers))
            changed = False
            for _, p_idx, _, kind, payload in batch:  # heap order: ties by pattern id
                if payload:  # expired window: the slot's contents can be dropped
                    a_idx, c_idx = payload
                    cons = self.cp.patterns[p_idx].alternatives[a_idx].constituents[c_idx]
                    store = self.blockers if kind == _NEGATION_CLEAR else self.buffers
                    buf = store.get((p_idx, a_idx, c_idx))
                    if buf:
                        w = cons.window_ms
                        kept = [m for m in buf if m.ts + w > due]
                        if len(kept) != len(buf):
                            store[(p_idx, a_idx, c_idx)] = kept
                            changed = True
                            self._versions[p_idx] += 1
                if kind != _WINDOW_EXPIRY:
                    # negation clearance and debounce expiry are pure time
                    # flips: the pattern must be re-examined even though no
                    # buffer content moved
                    changed = True
                    self._versions[p_idx] += 1
            self.clock = due
            if changed or not self._clean:
                results.extend(self._eval_pass())
            elif self._always_eval:
                results.extend(self._eval_pass(self._always_eval))
        return results

    def _eval_pass(self, restrict=None) -> list[MatchResult]:
        """One match-cycle at the current clock."""
        now = self.clock
        self.cycle += 1
        out: list[MatchResult] = []
        eligible = eligibility_predicate(self.cp, self.lifetime_ms, now)
        fast_ok = self.lifetime_ms is None
        buffers = self.buffers
        versions = self._versions
        miss_cache = self._miss_cache
        watermark = self._watermark
        callbacks = self._callbacks
        for cp in (restrict if restrict is not None else self.cp.patterns):
            p_idx = cp.index
            if cp.debounce_ms is not None:
                last = self.last_activation[p_idx]
                if last is not None and now - last <= cp.debounce_ms:
                    continue
            if fast_ok and cp.fastpath and miss_cache[p_idx] == versions[p_idx]:
                continue
            # cheap readiness gate: every alternative needs a candidate in each
            # positive slot before the full decision procedure is worth running
            ready = False
            for a_idx, alt in enumerate(cp.alternatives):
                for cons in alt.positives:
                    if not buffers.get((p_idx, a_idx, cons.cons_index)):
                        break
                else:
                    ready = True
                    break
            if not ready:
                miss_cache[p_idx] = versions[p_idx]
                continue

            if callbacks[p_idx] is None:
                callbacks[p_idx] = self._slot_callbacks(cp)
            get_candidates, get_blockers, lookup = callbacks[p_idx]
            fp_before = self._pattern_fingerprint(cp, now) if self.on_guard_false else None
            outcome = evaluate_pattern(
                cp, get_candidates, get_blockers, now, eligible, self.cycle,
                lookup, watermark[p_idx],
            )
            self.diagnostics.extend(outcome.diagnostics)
            if outcome.result is not None:
                self._consume(cp, outcome.result)
                out.append(outcome.result)
            else:
                if outcome.guard_failed and self.on_guard_false:
                    self.on_guard_false(cp.name, fp_before, self._pattern_fingerprint(cp, now))
                failed = outcome.guard_failed or outcome.diagnostics
                watermark[p_idx] = None if failed else self.last_seq
                if not outcome.diagnostics:
                    miss_cache[p_idx] = versions[p_idx]
        if restrict is None:
            self._clean = not out
        elif out:
            self._clean = False
        return out

    def _slot_callbacks(self, cp: CompiledPattern):
        """The decision procedure's view of one pattern's slots at the
        current clock: (get_candidates, get_blockers, lookup), where lookup
        is None unless some positive is keyed."""
        p_idx = cp.index

        def get_candidates(a_idx, c_idx):
            slot = (p_idx, a_idx, c_idx)
            buf = self.buffers.get(slot, _EMPTY)
            if buf:
                cons = cp.alternatives[a_idx].constituents[c_idx]
                now = self.clock
                drop = 0
                while drop < len(buf) and self._dead_forever(buf[drop], cons, now):
                    drop += 1
                if drop:
                    if cons.join_key:
                        self._unindex_heads(slot, cons, buf[:drop])
                    del buf[:drop]
            return buf

        def get_blockers(a_idx, c_idx):
            return self.blockers.get((p_idx, a_idx, c_idx), _EMPTY)

        def lookup(a_idx, c_idx, key):
            get_candidates(a_idx, c_idx)  # drops dead heads from the index too
            return self.index.get((p_idx, a_idx, c_idx), _NO_INDEX).get(key, _EMPTY)

        keyed = any(c.join_key for alt in cp.alternatives for c in alt.positives)
        return get_candidates, get_blockers, lookup if keyed else None

    def _consume(self, cp: CompiledPattern, result: MatchResult) -> None:
        p_idx = cp.index
        ids = {m.id for m in result.messages}
        self.consumed[p_idx].update(ids)
        for a_idx, alt in enumerate(cp.alternatives):
            for cons in alt.constituents:
                if cons.negated:
                    continue
                slot = (p_idx, a_idx, cons.cons_index)
                buf = self.buffers.get(slot)
                if buf:
                    kept = [m for m in buf if m.id not in ids]
                    if len(kept) != len(buf):
                        self.buffers[slot] = kept
                        if cons.join_key:
                            self._reindex(slot)
        self._watermark[p_idx] = None
        self.last_activation[p_idx] = result.at
        if cp.debounce_ms is not None:
            self._schedule(result.at + cp.debounce_ms + 1, p_idx, _DEBOUNCE_CLEAR, ())
        self._versions[p_idx] += 1

    def _reindex(self, slot) -> None:
        p_idx, a_idx, c_idx = slot
        cons = self.cp.patterns[p_idx].alternatives[a_idx].constituents[c_idx]
        index: dict[tuple, list[Message]] = {}
        for m in self.buffers[slot]:
            index.setdefault(cons.message_key(m), []).append(m)
        self.index[slot] = index

    def _unindex_heads(self, slot, cons, dropped: list[Message]) -> None:
        """Remove a keyed slot's dropped buffer head from its index: each
        dropped message heads its bucket, as buckets keep buffer order."""
        index = self.index[slot]
        for m in dropped:
            key = cons.message_key(m)
            bucket = index[key]
            del bucket[0]
            if not bucket:
                del index[key]

    def _dead_forever(self, m: Message, cons, now: int) -> bool:
        """True when a buffered message can never participate again, so the
        buffer head may be dropped without touching match semantics."""
        if cons.window_ms is not None and m.ts + cons.window_ms <= now:
            return True
        if cons.slot_bound_ms is not None and now - m.ts > cons.slot_bound_ms:
            return True
        if self.lifetime_ms is not None and now - m.ts > self.lifetime_ms:
            return True
        bound = self.cp.retention_ms.get(m.type_tag.name)
        return bound is not None and now - m.ts > bound

    def _pattern_fingerprint(self, cp: CompiledPattern, now: int):
        """Live buffer contents for the guard-no-consume invariant check.

        Messages already past every bound are pruned lazily, so the physical
        lists may shrink during an evaluation; the semantically live view is
        what a rejected guard must leave intact."""
        p_idx = cp.index
        parts = []
        for a_idx, alt in enumerate(cp.alternatives):
            for cons in alt.constituents:
                slot = (p_idx, a_idx, cons.cons_index)
                store = self.blockers if cons.negated else self.buffers
                parts.append(tuple(
                    m.id for m in store.get(slot, _EMPTY)
                    if not self._dead_forever(m, cons, now)
                ))
        return tuple(parts), len(self.consumed[p_idx])

    # -- garbage collection -----------------------------------------------------

    def gc(self, now: int, lifetime_ms: int | None = None) -> int:
        """Drop every buffered message past its lifetime or retention bound.

        Returns the number of distinct messages removed.  Idempotent at a
        fixed ``now``."""
        lifetime = lifetime_ms if lifetime_ms is not None else self.lifetime_ms
        retention = self.cp.retention_ms
        removed: set[int] = set()

        def keep(m: Message) -> bool:
            age = now - m.ts
            if lifetime is not None and age > lifetime:
                return False
            bound = retention.get(m.type_tag.name)
            return bound is None or age <= bound

        for store in (self.buffers, self.blockers):
            for slot, buf in store.items():
                kept = []
                for m in buf:
                    if keep(m):
                        kept.append(m)
                    else:
                        removed.add(m.id)
                if len(kept) != len(buf):
                    store[slot] = kept
                    if slot in self.index:
                        self._reindex(slot)
        self._watermark = [None] * len(self.cp.patterns)
        return len(removed)

    # -- introspection ------------------------------------------------------------

    def buffered_total(self) -> int:
        return sum(len(b) for b in self.buffers.values()) + sum(
            len(b) for b in self.blockers.values()
        )


def replay_trace(
    compiled: CompiledProgram,
    events,
    lifetime_ms: int | None = None,
    network: Network | None = None,
) -> tuple[list[MatchResult], Network]:
    """Feed a loaded trace straight through a network under the virtual clock."""
    from .tracefile import AdvanceEvent

    net = network if network is not None else Network(compiled, lifetime_ms=lifetime_ms)
    matches: list[MatchResult] = []
    for ev in events:
        if isinstance(ev, AdvanceEvent):
            matches.extend(net.advance_time(ev.to))
        else:
            _, results = net.ingest(ev.type_tag, ev.attrs, ev.ts)
            matches.extend(results)
    return matches, net
