from __future__ import annotations

import json

import pytest

from sprw.cli import FUZZ_LIFETIMES
from sprw.compile import compile_program, expiry_bounds
from sprw.engine import replay_trace
from sprw.expand import expand
from sprw.fuzz import differential, index_mismatch, run_case
from sprw.fuzzgen import OP_GRID, generate_case
from sprw.oracle import oracle_run
from sprw.parser import parse_program
from sprw.tracefile import AdvanceEvent, MessageEvent
from sprw.values import Symbol


def compiled(text):
    return compile_program(expand(parse_program(text)))


def events(*items):
    return [
        MessageEvent(ts, Symbol(tag), tuple(attrs)) if kind == "m" else AdvanceEvent(ts)
        for kind, ts, tag, attrs in items
    ]


def test_single_elementary_pattern_is_a_linear_filter():
    c = compiled("pattern p as {:a, x, :on}")
    trace = events(
        ("m", 0, "a", (1, Symbol("on"))),
        ("m", 10, "a", (2, Symbol("off"))),
        ("m", 20, "a", (3, Symbol("on"))),
        ("m", 30, "b", (4,)),
    )
    out = oracle_run(c, trace)
    assert [(m.at, m.bindings["x"]) for m in out.results] == [(0, 1), (20, 3)]


def test_count_trace_matches_hand_derivation():
    c = compiled("pattern hf as {:heating_f, id, @code}[count: 3]")
    trace = events(
        ("m", 0, "heating_f", ("b1", Symbol("c1"))),
        ("m", 1000, "heating_f", ("b1", Symbol("c2"))),
        ("m", 2000, "heating_f", ("b2", Symbol("c3"))),
        ("m", 3000, "heating_f", ("b1", Symbol("c1"))),
    )
    out = oracle_run(c, trace)
    assert len(out.results) == 1
    assert [m.id for m in out.results[0].messages] == [1, 2, 4]
    assert out.results[0].at == 3000


def test_pure_function_of_inputs():
    case = generate_case(7, n_events=60)
    c = compiled(case.program_text)
    first = oracle_run(c, case.trace)
    second = oracle_run(c, case.trace)
    assert [(m.pattern, m.at, tuple(x.id for x in m.messages)) for m in first.results] == [
        (m.pattern, m.at, tuple(x.id for x in m.messages)) for m in second.results
    ]


def test_time_insensitive_programs_derive_no_timer_points():
    # no negation, debounce or window: only event times can produce matches
    c = compiled("pattern p as {:a, x} and {:b, x}")
    trace = events(
        ("m", 0, "a", (1,)),
        ("m", 10, "b", (1,)),
        ("a", 100_000, "", ()),
    )
    out = oracle_run(c, trace)
    event_times = {0, 10}
    assert all(m.at in event_times for m in out.results)


def test_a_consumed_message_still_blocks_the_patterns_negations():
    # {:a, 1} is consumed by the first alternative at 10, yet it still blocks
    # `not {:a, x}` in the second, so {:c, 1} never fires
    diff = differential(
        compiled("pattern p as {:a, x} and {:b, x} or {:c, x} and not {:a, x}"),
        events(
            ("m", 0, "a", (1,)),
            ("m", 10, "b", (1,)),
            ("m", 20, "c", (1,)),
            ("a", 100, "", ()),
        ),
    )
    assert diff.divergence() == ""
    records = [json.loads(line) for line in diff.engine_records]
    assert [(r["at"], r["messageIds"]) for r in records] == [(10, [1, 2])]


def test_seeded_cases_agree_with_engine():
    for seed in range(25):
        case = generate_case(5000 + seed, n_events=100)
        ok, detail = run_case(case)
        assert ok, f"seed {case.seed}: {detail}\n{case.program_text}"


# (seed, events, position in its run) of cases where diagnostics or match
# cycles once diverged: criterion 4's corpus (seeds from 31,000) and
# `sprw fuzz --events 600 --seed 95000`; the position picks the forced operator
@pytest.mark.parametrize(
    "seed, n_events, i",
    [(31_000 + i, 120, i) for i in (40, 74, 103, 117, 129, 142, 174)]
    + [(95_000 + i, 600, i) for i in (13, 78, 83)],
)
def test_diagnostics_and_match_cycles_agree_with_engine(seed, n_events, i):
    case = generate_case(seed, n_events=n_events, force_op=OP_GRID[i % len(OP_GRID)])
    ok, detail = run_case(case)
    assert ok, f"seed {seed}: {detail}\n{case.program_text}"


def test_a_diagnostic_is_reported_once_per_episode():
    # the guard raises while an `:a` is in its window: the `:y` cycles in
    # between end no episode, the window's expiry at 1,000 (a miss) does
    c = compiled("pattern p as {:a, x}[window: {1, :secs}] when x > :oops")
    trace = events(
        ("m", 0, "a", (1,)),
        *[("m", t, "y", ()) for t in range(10, 1_510, 10)],
        ("m", 1_500, "a", (2,)),
        *[("m", t, "y", ()) for t in range(1_510, 3_000, 10)],
    )
    diff = differential(c, trace)
    assert [d.at for d in diff.network.diagnostics] == [0, 1_500]
    assert [d.at for d in diff.oracle.diagnostics] == [0, 1_500]
    assert diff.divergence() == ""


@pytest.mark.parametrize("lifetime_ms", [300, 1_500, 5_000])
def test_lifetimes_agree_with_engine(lifetime_ms):
    # criterion 4 replays without a lifetime; this pins the expiry heap under
    # a lifetime and the dead-head drop of blockers across the operator grid
    # in tier-1, as `sprw fuzz` does over its own seeds
    for i in range(6 * len(OP_GRID)):
        case = generate_case(70_000 + i, force_op=OP_GRID[i % len(OP_GRID)])
        detail = differential(compiled(case.program_text), case.trace, lifetime_ms).divergence()
        assert not detail, f"seed {case.seed}, lifetime {lifetime_ms}: {detail}\n{case.program_text}"


def test_no_dead_message_outlives_the_cycle_of_its_death():
    # a message is dead once it is past its window, its slot bound or its
    # type's expiry bound; after a cycle at the clock no buffer holds one,
    # whether or not any evaluation read its slot
    unrouted = Symbol("unnamed_type")
    leaks = []
    for i in range(200):
        case = generate_case(31_000 + i, n_events=60, force_op=OP_GRID[i % len(OP_GRID)])
        lifetime = FUZZ_LIFETIMES[(i // len(OP_GRID)) % len(FUZZ_LIFETIMES)]
        c = compiled(case.program_text)
        assert unrouted.name not in c.routing
        _, net = replay_trace(c, case.trace, lifetime)
        net.ingest(unrouted, (), net.clock)
        bounds = expiry_bounds(c, lifetime)
        for (p_idx, a_idx, c_idx), buf in [*net.buffers.items(), *net.blockers.items()]:
            cons = c.patterns[p_idx].alternatives[a_idx].constituents[c_idx]
            bound = bounds[cons.selector.type_tag.name]
            for m in buf:
                age = net.clock - m.ts
                if (cons.window_ms is not None and age >= cons.window_ms
                        or cons.slot_bound_ms is not None and age > cons.slot_bound_ms
                        or bound is not None and age > bound):
                    leaks.append((case.seed, cons.slot, m.id))
        assert index_mismatch(net) == "", case.seed
    assert not leaks, f"{len(leaks)} dead messages buffered, first {leaks[:3]}"
