"""Keyed joins, anti-joins and delta seeding against the brute-force oracle.

The engine fetches a keyed slot's candidates, and a negation's blockers, from
a hash index and, after a fruitless evaluation, searches only combinations
that hold a newer message.  The oracle does neither, so byte-identical records
over many seeded equi-join cases check both.  After every event each index
must also equal its slot buffer filtered by key, in buffer order.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

import sprw.actor as actor
import sprw.combine
import sprw.engine
from sprw.compile import compile_program
from sprw.engine import Network, replay_trace
from sprw.fuzz import differential, index_mismatch
from sprw.expand import expand
from sprw.matching import extend_env
from sprw.oracle import oracle_run
from sprw.parser import parse_program
from sprw.tracefile import AdvanceEvent, MessageEvent, load_trace, record_line, records_for
from sprw.values import Symbol

CASES = 320
JOIN_TYPES = "abc"
# join keys are mostly small ints; 1.0 and True hash like 1 but never unify
# with it, so they land in the same bucket and must be filtered out
KEY_POOL = (1, 2, 3, 1, 2, 3, 1.0, True)


def _join_pattern(rng: random.Random, name: str) -> str:
    ways = rng.choice((2, 2, 3, 3, 4))
    chain = rng.random() < 0.15  # consecutive pairs share a key: no delta seeding
    parts = []
    for i in range(ways):
        first = f"k{min(i, ways - 2)}" if chain else "x"
        roll = rng.random()
        if chain:
            second = f"k{i - 1}" if i else "y"
        elif roll < 0.35:
            second = "y"
        elif roll < 0.5:
            second = f"@m{i}"
        elif roll < 0.65:
            second = "!n"
        elif roll < 0.75:
            second = str(rng.randint(1, 3))
        else:
            second = f"u{i}"
        third = "!w" if rng.random() < 0.15 else f"p{i}"
        op = "[count: 2]" if rng.random() < 0.05 else ""
        parts.append(f"{{:{rng.choice(JOIN_TYPES)}, {first}, {second}, {third}}}{op}")
    if rng.random() < 0.12:
        parts.append(f"not {{:d, x, q, r}}[window: {{{rng.randint(1, 2)}, :secs}}]")
    body = " and ".join(parts)
    if rng.random() < 0.3:
        body += f" when p0 {rng.choice(('>', '<', '!='))} {rng.randint(1, 3)}"
    options = []
    if rng.random() < 0.3:
        options.append("seq: true")
    if rng.random() < 0.4:
        options.append("last: true")
    if rng.random() < 0.4:
        options.append(f"interval: {{{rng.randint(1, 4)}, :secs}}")
    if rng.random() < 0.2:
        options.append(f"debounce: {{{rng.randint(1, 2)}, :secs}}")
    if options:
        body += f", options: [{', '.join(options)}]"
    return f"pattern {name} as {body}"


def _case(seed: int):
    rng = random.Random(seed)
    lines = [_join_pattern(rng, f"j{k}") for k in range(rng.randint(1, 3))]
    # window expiry timers fall due on the same instants as arrivals
    lines.append("pattern tick as {:t, z}[window: {1, :secs}]")
    lines.append("react_to j0, with: emit(joined)")
    events = []
    ts = 0
    for _ in range(rng.randint(40, 90)):
        ts += rng.choice((0, 250, 250, 500, 1000))
        if rng.random() < 0.05:
            ts += 1000
            events.append(AdvanceEvent(ts))
            continue
        tag = rng.choice("abcabcabcdt")
        attrs = (rng.choice(KEY_POOL), rng.choice(KEY_POOL), rng.randint(1, 3))
        events.append(MessageEvent(ts, Symbol(tag), attrs[:1] if tag == "t" else attrs))
    events.append(AdvanceEvent(ts + 10_000))
    lifetime = rng.choice((None, None, 2_000, 4_000))
    gc_every = rng.choice((0, 0, 3, 7))
    return "\n".join(lines) + "\n", events, lifetime, gc_every


def _engine_records(compiled, events, lifetime, gc_every, labels):
    net = Network(compiled, lifetime_ms=lifetime)
    matches = []
    for n, ev in enumerate(events, start=1):
        if isinstance(ev, AdvanceEvent):
            matches.extend(net.advance_time(ev.to))
        else:
            matches.extend(net.ingest(ev.type_tag, ev.attrs, ev.ts)[1])
        if gc_every and n % gc_every == 0:
            net.gc(net.clock)
        assert index_mismatch(net) == ""
    return [record_line(r) for r in records_for(matches, labels)]


def _oracle_records(compiled, events, lifetime, labels):
    out = oracle_run(compiled, events, lifetime)
    return [record_line(r) for r in records_for(out.results, labels)]


def _labels(compiled):
    labels: dict[str, list[str]] = {}
    for b in compiled.bindings:
        labels.setdefault(b.pattern, []).append(b.label)
    return lambda name: labels.get(name, [])


def test_keyed_joins_match_oracle():
    mismatched = []
    delta_patterns = indexed_patterns = delta_matches = 0
    for i in range(CASES):
        seed = 52_000 + i
        text, events, lifetime, gc_every = _case(seed)
        compiled = compile_program(expand(parse_program(text)))
        delta = {cp.name for cp in compiled.patterns if any(a.delta for a in cp.alternatives)}
        delta_patterns += len(delta)
        indexed_patterns += sum(
            any(c.join_key for a in cp.alternatives for c in a.positives)
            for cp in compiled.patterns
        )
        labels = _labels(compiled)
        engine = _engine_records(compiled, events, lifetime, gc_every, labels)
        if engine != _oracle_records(compiled, events, lifetime, labels):
            mismatched.append(seed)
        delta_matches += sum(json.loads(line)["pattern"] in delta for line in engine)
    assert not mismatched, f"engine differs from oracle on seeds {mismatched[:5]}"
    # the cases must reach the new paths, not just pass around them
    assert delta_patterns >= CASES
    assert indexed_patterns > delta_patterns
    assert delta_matches >= 2 * CASES


def test_shapes_that_qualify_for_delta_seeding():
    def delta(text):
        compiled = compile_program(expand(parse_program(text)))
        return [a.delta for a in compiled.patterns[0].alternatives]

    assert delta("pattern p as {:a, x, p} and {:b, x, q}") == [True]
    assert delta("pattern p as {:a, x, y} and {:b, y, @z, x} and {:c, y, x, !z}") == [True]
    # the keys differ, so a {:b} seed would leave {:a}'s key half bound
    assert delta("pattern p as {:a, x, y} and {:b, x} and {:c, y, x}") == [False]
    assert delta("pattern p as {:a, x} and {:b, x, y} and {:c, y}") == [False]
    assert delta("pattern p as {:a, x} and {:b, y}") == [False]
    assert delta("pattern p as {:a, x} and {:b, x}[count: 2]") == [False]
    assert delta("pattern p as {:a, x} and {:b, x} and not {:c, x}[window: {1, :secs}]") == [False]
    assert delta("pattern p as {:a, x} and {:b, x} or {:c, x}") == [True, False]


def test_timer_group_due_at_an_arrival_sees_the_arrival():
    # The window timer of `tick` falls due at 1000, the instant {:b, 1}
    # arrives.  The timer group runs after the arrival's id is allocated but
    # before it is routed, and its evaluation of `pair` (re-evaluated every
    # cycle, as its interval bounds retention) finds nothing; the delta
    # search that follows the arrival must still include it.
    text = (
        "pattern pair as {:a, x} and {:b, x}, options: [interval: {5, :secs}]\n"
        "pattern tick as {:t, z}[window: {1, :secs}]\n"
    )
    events = [
        MessageEvent(0, Symbol("a"), (1,)),
        MessageEvent(0, Symbol("b"), (2,)),
        MessageEvent(0, Symbol("t"), (9,)),
        MessageEvent(1000, Symbol("b"), (1,)),
        AdvanceEvent(5000),
    ]
    compiled = compile_program(expand(parse_program(text)))
    labels = _labels(compiled)
    engine = _engine_records(compiled, events, None, 0, labels)
    assert engine == _oracle_records(compiled, events, None, labels)
    assert [r for r in engine if '"pair"' in r] == [
        '{"at":1000,"pattern":"pair","reaction":null,"messageIds":[1,4],'
        '"bindings":{"x":1},"intermediates":{}}'
    ]


def _calls_per_message(monkeypatch, text, prefix, measured):
    """Calls of extend_env, of the slots' index keys (``attrs_key``) and of
    the engine's evaluate_pattern per message of ``measured``, fed after
    ``prefix``, whose messages all stay buffered, by name; and the matches of
    ``measured``.  Both are lists of (type, attrs)."""
    compiled = compile_program(expand(parse_program(text)))
    calls = {"extend_env": 0, "attrs_key": 0, "evaluate_pattern": 0}

    def counting_attrs_key(attrs_key):
        def counting(attrs):
            calls["attrs_key"] += 1
            return attrs_key(attrs)
        return counting

    # the network reads each slot's key once, when it first routes there
    for cp in compiled.patterns:
        for alt in cp.alternatives:
            for cons in alt.constituents:
                if cons.attrs_key is not None:
                    cons.attrs_key = counting_attrs_key(cons.attrs_key)
    net = Network(compiled)
    for ts, (tag, attrs) in enumerate(prefix):
        net.ingest(Symbol(tag), attrs, ts)
    assert net.buffered_total() == len(prefix)
    calls["attrs_key"] = 0
    evaluate = sprw.engine.evaluate_pattern

    def counting_extend_env(*args):
        calls["extend_env"] += 1
        return extend_env(*args)

    def counting_evaluate(*args):
        calls["evaluate_pattern"] += 1
        return evaluate(*args)

    monkeypatch.setattr(sprw.combine, "extend_env", counting_extend_env)
    monkeypatch.setattr(sprw.engine, "evaluate_pattern", counting_evaluate)
    matches = []
    for ts, (tag, attrs) in enumerate(measured, start=len(prefix)):
        matches += net.ingest(Symbol(tag), attrs, ts)[1]
    monkeypatch.undo()
    return {name: n / len(measured) for name, n in calls.items()}, matches


JOIN = "pattern j as {:a, x, p} and {:b, x, q}"


def _join_messages(first: int, last: int, match_every: int = 0) -> list:
    """Messages ``first`` to ``last`` for JOIN: {:a} and {:b} whose keys
    never meet, except that with ``match_every``, every such message is a
    {:b} joining the message just before it."""
    return [
        ("b", (n - 1, 0)) if match_every and n % match_every == 0
        else ("a", (n, 0)) if n % 2 else ("b", (-n, 0))
        for n in range(first, last)
    ]


def _join_calls(monkeypatch, buffered: int, match_every: int = 0) -> tuple:
    """_calls_per_message of 100 JOIN messages after ``buffered`` unmatched."""
    measured = _join_messages(buffered, buffered + 100, match_every)
    calls, matches = _calls_per_message(
        monkeypatch, JOIN, _join_messages(0, buffered), measured
    )
    assert len(matches) == (100 // match_every if match_every else 0)
    return calls["extend_env"], calls["attrs_key"]


def test_join_cost_per_message_does_not_grow_with_buffered(monkeypatch):
    small, _ = _join_calls(monkeypatch, 400)
    large, _ = _join_calls(monkeypatch, 1_600)
    assert small == large
    assert small <= 2


def test_join_cost_after_a_match_does_not_grow_with_buffered(monkeypatch):
    # consumption keeps the watermark, so the evaluation after a match
    # searches only the new arrivals, not the whole buffer again
    small, _ = _join_calls(monkeypatch, 400, match_every=10)
    large, _ = _join_calls(monkeypatch, 1_600, match_every=10)
    assert large <= 2 * small


def test_rare_side_join_cost_does_not_grow_with_buffered(monkeypatch):
    # only {:a} waits; every 10th message is a {:b} joining the {:a} just
    # before it.  A failed readiness gate records the watermark, so the {:b}
    # seeds a delta search instead of a full one, and consumption edits the
    # bucket in place instead of rebuilding the index
    def per_message(buffered):
        measured = [
            ("b", (n - 1, 0)) if n % 10 == 0 else ("a", (n, 0))
            for n in range(buffered, buffered + 100)
        ]
        prefix = [("a", (n, 0)) for n in range(buffered)]
        calls, matches = _calls_per_message(monkeypatch, JOIN, prefix, measured)
        assert len(matches) == 10
        return calls["extend_env"], calls["attrs_key"]

    (small_ee, small_mk), (large_ee, large_mk) = per_message(400), per_message(6_400)
    assert large_ee <= 2 * small_ee
    assert large_mk <= 2 * small_mk


def test_a_completing_seed_is_unified_once(monkeypatch):
    # {:c} and {:d} wait, each skipped by the readiness gate, so {:e} seeds a
    # delta search at the last position: one unification of the seed before
    # the search, one each for {:c} and {:d}, and none again for the seed
    calls, matches = _calls_per_message(
        monkeypatch, "pattern t as {:c, x, y} and {:d, x, y} and {:e, x, y}",
        [("c", (1, 2)), ("d", (1, 2))], [("e", (1, 2))],
    )
    assert [[m.id for m in match.messages] for match in matches] == [[1, 2, 3]]
    assert calls["extend_env"] == 3


def test_anti_join_cost_does_not_grow_with_blockers(monkeypatch):
    # no blocker shares a key with an {:a}: the negation probes one empty
    # bucket of the blockers' index instead of unifying with each blocker
    text = "pattern p as {:a, x} and not {:m, x}"

    def per_message(blockers):
        prefix = [("m", (-n,)) for n in range(1, blockers + 1)]
        calls, matches = _calls_per_message(
            monkeypatch, text, prefix, [("a", (n,)) for n in range(100)]
        )
        assert len(matches) == 100
        return calls["extend_env"]

    small = per_message(200)
    assert per_message(3_200) <= 2 * small
    assert small <= 2


def test_windowed_keyed_negation_unblocks_when_its_blocker_is_trimmed():
    # each {:a} is blocked by the {:m} of its key until that blocker's window
    # timer trims it from the buffer and the index; key 2's blocker stays
    # longer, so the probe must find the right bucket
    text = "pattern p as {:a, x} and not {:m, x}[window: {1, :secs}]\n"
    events = [
        MessageEvent(0, Symbol("m"), (1,)),
        MessageEvent(100, Symbol("m"), (2,)),
        MessageEvent(500, Symbol("a"), (1,)),
        MessageEvent(500, Symbol("a"), (2,)),
        MessageEvent(1_200, Symbol("m"), (1,)),
        MessageEvent(1_400, Symbol("m"), (2,)),
        AdvanceEvent(5_000),
    ]
    compiled = compile_program(expand(parse_program(text)))
    labels = _labels(compiled)
    engine = _engine_records(compiled, events, None, 0, labels)
    assert engine == _oracle_records(compiled, events, None, labels)
    assert [(r["at"], r["bindings"]) for r in map(json.loads, engine)] == [
        (2_200, {"x": 1}), (2_400, {"x": 2})
    ]
    diff = differential(compiled, events)
    assert diff.divergence() == ""
    assert diff.network.blockers[(0, 0, 1)] == [] and diff.network.index[(0, 0, 1)] == {}


def test_gate_skips_arrivals_with_no_partner(monkeypatch):
    # after a fruitless evaluation, an arrival whose key no message of the
    # other slot holds starts no combination: the readiness gate skips the
    # pattern without evaluating it, however many messages wait
    for buffered in (400, 1_600):
        calls, matches = _calls_per_message(
            monkeypatch, JOIN, _join_messages(0, buffered), _join_messages(buffered, buffered + 100)
        )
        assert matches == []
        assert calls["evaluate_pattern"] == calls["extend_env"] == 0


def test_fixed_work_of_a_partnerless_message(monkeypatch):
    # the benchmark's join_window shape: interval equi-joins over five types
    # and no timers.  Once every pattern has missed, a message whose key no
    # other message holds costs one readiness-gate check and nothing else:
    # no evaluation, no timer pass and no clock advance in `step`, though
    # each message also retires the one that died 3 s before it
    text = (
        "pattern pair as {:a, x, p} and {:b, x, q}, options: [interval: {3, :secs}]\n"
        "pattern triple as {:c, x, _} and {:d, x, _} and {:e, x, _}, "
        "options: [interval: {3, :secs}]\n"
    )
    cell = actor.spawn(text)

    def feed(first, last):
        for n in range(first, last):
            actor.deliver(cell, "abcde"[n % 5], (n, 0), n * 20)
            actor.step(cell, n * 20)

    feed(0, 400)
    calls = {"evaluate_pattern": 0, "_run_timers": 0, "advance_time": 0, "gate": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(sprw.engine, "evaluate_pattern",
                        counting("evaluate_pattern", sprw.engine.evaluate_pattern))
    monkeypatch.setattr(sprw.engine, "_partnered_arrival",
                        counting("gate", sprw.engine._partnered_arrival))
    for name in ("_run_timers", "advance_time"):
        monkeypatch.setattr(Network, name, counting(name, getattr(Network, name)))
    buffered = cell.network.buffered_total()
    feed(400, 500)
    monkeypatch.undo()
    assert calls == {"evaluate_pattern": 0, "_run_timers": 0, "advance_time": 0, "gate": 100}
    # a message lives 3 s past its arrival: 151 wait at every step
    assert cell.network.buffered_total() == buffered == 151
    assert cell.outputs == []


def _gated_replay(monkeypatch, text, events, lifetime=None):
    """The engine's records, checked against the oracle's and its indexes
    against its buffers, and the instants at which it evaluated a pattern."""
    evaluated = []
    evaluate = sprw.engine.evaluate_pattern

    def recording(cp, get_candidates, now, *args):
        evaluated.append(now)
        return evaluate(cp, get_candidates, now, *args)

    monkeypatch.setattr(sprw.engine, "evaluate_pattern", recording)
    diff = differential(compile_program(expand(parse_program(text))), events, lifetime)
    monkeypatch.undo()
    assert diff.divergence() == ""
    return [(r["at"], r["messageIds"]) for r in map(json.loads, diff.engine_records)], evaluated


def _messages(*events):
    return [MessageEvent(ts, Symbol(tag), attrs) for tag, attrs, ts in events]


def test_gate_passes_when_the_partner_arrives_on_either_side(monkeypatch):
    # ids 1-6 wait with keys that never meet; {:b, 1} then finds the waiting
    # {:a, 1}, and {:a, 2} the waiting {:b, 2}.  In the three-way pattern
    # {:c, 5} has a {:d} partner but no {:e}, so it is skipped too
    text = JOIN + "\npattern t as {:c, x} and {:d, x} and {:e, x}\n"
    events = _messages(
        ("a", (1, 0), 0), ("b", (2, 0), 10), ("a", (3, 0), 20), ("b", (4, 0), 30),
        ("d", (5,), 40), ("e", (6,), 50),
        ("b", (1, 9), 60), ("a", (2, 9), 70), ("c", (5,), 80), ("a", (7, 0), 90),
    ) + [AdvanceEvent(1_000)]
    records, evaluated = _gated_replay(monkeypatch, text, events)
    assert records == [(60, [1, 7]), (70, [8, 2])]
    # a match keeps its pattern on the agenda, but at the next cycle no
    # message newer than the watermark has a partner left, so the gate skips
    assert evaluated == [60, 70]


def test_gate_finds_a_partner_key_in_other_positions(monkeypatch):
    # {:b} holds the key (y, x) at positions 1 and 3, {:a} at 2 and 1, so the
    # gate must build each partner's key from its own positions
    text = "pattern p as {:a, x, y} and {:b, y, @z, x}"
    events = _messages(
        ("a", (1, 2), 0), ("b", (1, 0, 2), 10), ("b", (2, 0, 1), 20),
        ("b", (4, 0, 3), 30), ("a", (3, 4), 40),
    ) + [AdvanceEvent(1_000)]
    records, evaluated = _gated_replay(monkeypatch, text, events)
    assert records == [(20, [1, 3]), (40, [5, 4])]
    assert evaluated == [20, 40]


def test_gate_sees_every_arrival_held_back_by_a_debounce(monkeypatch):
    # the match at 10 debounces `p` until 1,010; of the four messages that
    # arrive meanwhile only {:a, 2} and {:b, 2} are partners, and neither is
    # the newest of its slot
    text = "pattern p as {:a, x} and {:b, x}, options: [debounce: {1, :secs}]"
    events = _messages(
        ("a", (1,), 0), ("b", (1,), 10),
        ("a", (2,), 100), ("b", (2,), 200), ("b", (3,), 300), ("a", (4,), 400),
    ) + [AdvanceEvent(3_000)]
    records, evaluated = _gated_replay(monkeypatch, text, events)
    assert records == [(10, [1, 2]), (1_011, [3, 4])]
    assert evaluated == [10, 1_011]


def test_gate_never_joins_a_dead_message(monkeypatch):
    # under a 100 ms lifetime {:a, 2} dies at 151, long before the debounce
    # clears at 1,011, so {:b, 2}, which arrives at 1,005, has no live
    # partner then: as in the oracle, `p` fires only at 10
    text = "pattern p as {:a, x} and {:b, x}, options: [debounce: {1, :secs}]"
    events = _messages(
        ("a", (1,), 0), ("b", (1,), 10), ("a", (2,), 50), ("b", (3,), 151), ("b", (2,), 1_005),
    ) + [AdvanceEvent(3_000)]
    records, evaluated = _gated_replay(monkeypatch, text, events, lifetime=100)
    assert records == [(10, [1, 2])]
    assert evaluated == [10]


def test_gc_keeps_the_watermark(monkeypatch):
    # the benchmark's join_window workload, with a gc every 100 messages: gc
    # only removes messages, so no evaluation needs a full search and the
    # matches are those of the replay without gc
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    workload = workloads.build("join_window", 0)
    compiled = compile_program(expand(parse_program(workload.source)))
    events = load_trace(workload.trace_text)
    full_searches = []
    evaluate = sprw.engine.evaluate_pattern

    def recording(cp, get_candidates, now, cycle, watermark):
        if watermark is None:
            full_searches.append((cp.name, now))
        return evaluate(cp, get_candidates, now, cycle, watermark)

    monkeypatch.setattr(sprw.engine, "evaluate_pattern", recording)
    net = Network(compiled)
    matches = []
    for n, ev in enumerate(events, start=1):
        if isinstance(ev, AdvanceEvent):
            matches += net.advance_time(ev.to)
        else:
            matches += net.ingest(ev.type_tag, ev.attrs, ev.ts)[1]
        if n % 100 == 0:
            net.gc(net.clock)
    monkeypatch.undo()
    assert full_searches == []
    assert index_mismatch(net) == ""
    plain, _ = replay_trace(compiled, events)
    assert len(matches) == 19
    assert [(m.at, m.messages) for m in matches] == [(m.at, m.messages) for m in plain]


def test_index_mismatch_reports_a_stale_bucket_and_an_unkeyed_index():
    net = Network(compile_program(expand(parse_program(
        "pattern pair as {:a, x} and {:b, x}\npattern one as {:c, y}"
    ))))
    for tag, key in [("a", 1), ("b", 2), ("c", 1)]:
        net.ingest(Symbol(tag), (key,), 0)
    assert index_mismatch(net) == ""
    keyed = (0, 0, 0)
    net.buffers[keyed].clear()  # the bucket of key 1 still holds a(1)
    assert index_mismatch(net) == f"index of slot {keyed} differs from its buffer grouped by key"
    net.index[keyed].clear()
    assert index_mismatch(net) == ""
    net.index[(1, 0, 0)] = {}
    assert index_mismatch(net) == "unkeyed slot (1, 0, 0) has an index"
