from __future__ import annotations

import gc
import random

import pytest

import sprw.engine
from sprw.cli import run_records
from sprw.compile import compile_program
from sprw.engine import Network
from sprw.errors import CompileError, TimeRegression
from sprw.expand import expand
from sprw.fuzz import differential
from sprw.oracle import oracle_run
from sprw.parser import parse_program
from sprw.tracefile import AdvanceEvent, MessageEvent
from sprw.values import Symbol

from conftest import corpus_text
from spec import guard_no_consume
from test_acceptance import _perf_events, _perf_program


def build(text, lifetime_ms=None):
    compiled = compile_program(expand(parse_program(text)))
    return Network(compiled, lifetime_ms=lifetime_ms)


def feed(net, tag, attrs, ts):
    _, results = net.ingest(Symbol(tag), attrs, ts)
    return results


class TestCompile:
    def test_listing4_states_shared_alpha_nodes(self):
        compiled = compile_program(expand(parse_program(corpus_text("listing4"))))
        assert set(compiled.routing) == {"motion", "light", "amb_light"}
        motion_on = [
            spec for spec in compiled.alphas.values()
            if spec.type_tag == Symbol("motion") and spec.const_tests
        ]
        assert len(motion_on) == 1  # on_motion and no_motion share it
        users = {p for p, _, _ in motion_on[0].targets}
        names = {compiled.patterns[p].name for p in users}
        assert names == {"on_motion", "no_motion"}
        light_on = [
            spec for spec in compiled.alphas.values()
            if spec.type_tag == Symbol("light") and spec.const_tests
        ]
        assert len(light_on) == 1

    def test_single_elementary_network(self):
        compiled = compile_program(expand(parse_program("pattern p as {:a, x}")))
        assert len(compiled.alphas) == 1
        assert len(compiled.patterns) == 1

    def test_guards_do_not_split_alpha_nodes(self):
        compiled = compile_program(expand(parse_program(
            "pattern p as {:a, x} when x > 1\npattern q as {:a, x} when x < 1"
        )))
        assert len(compiled.alphas) == 1
        assert len(compiled.patterns) == 2

    def test_negated_only_pattern_rejected(self):
        with pytest.raises(CompileError) as err:
            compile_program(expand(parse_program(
                "pattern p as not {:a, x}[window: {1, :secs}]"
            )))
        assert err.value.code == "NoPositiveConstituent"


class TestInsert:
    def test_debounced_doorbell(self):
        net = build("pattern p as {:bell, b}[debounce: {30, :secs}]")
        hits = []
        for ts in (0, 10_000, 40_000):
            hits += feed(net, "bell", ("d1",), ts)
        assert [m.at for m in hits] == [0, 40_000]

    def test_every_third_message(self):
        net = build("pattern p as {:tick, n}[every: 3]")
        hits = []
        for i in range(7):
            hits += feed(net, "tick", (i + 1,), i * 10)
        assert [m.bindings["n"] for m in hits] == [3, 6]

    def test_occupied_home_fig18c_trace(self):
        net = build(corpus_text("fig18c"))
        out = []
        out += feed(net, "motion", ("m1", Symbol("on"), Symbol("front_door")), 0)
        out += feed(net, "contact", ("c1", Symbol("open"), Symbol("front_door")), 5_000)
        out += feed(net, "motion", ("m2", Symbol("on"), Symbol("entrance_hall")), 20_000)
        occupied = [m for m in out if m.pattern == "occupied_home"]
        assert len(occupied) == 1
        assert occupied[0].at == 20_000
        assert len(occupied[0].messages) == 3

    def test_time_regression(self):
        net = build("pattern p as {:a, x}")
        feed(net, "a", (1,), 100)
        with pytest.raises(TimeRegression):
            feed(net, "a", (1,), 50)

    def test_advance_time_regression(self):
        net = build("pattern p as {:a, x}")
        net.advance_time(100)
        with pytest.raises(TimeRegression):
            net.advance_time(50)

    def test_a_message_of_no_selector_arity_is_routed_nowhere(self):
        compiled = compile_program(expand(parse_program("pattern p as {:a, x}")))
        trace = [MessageEvent(0, Symbol("a"), (1, 2)), MessageEvent(1, Symbol("a"), ())]
        diff = differential(compiled, trace)
        assert diff.divergence() == ""
        assert diff.engine_records == diff.oracle_records == []
        assert diff.network.buffered_total() == 0

    def test_multiple_patterns_consume_same_message(self):
        net = build("pattern p as {:a, x}\npattern q as {:a, x}")
        results = feed(net, "a", (7,), 0)
        assert [m.pattern for m in results] == ["p", "q"]
        assert results[0].messages[0].id == results[1].messages[0].id

    def test_results_are_immutable(self):
        (result,) = feed(build("pattern p as {:a, x}"), "a", (7,), 0)
        with pytest.raises(AttributeError):
            result.pattern = "q"
        with pytest.raises(AttributeError):
            result.messages[0].ts = 5

    def test_one_match_per_pattern_per_cycle(self):
        # two candidates pile up behind a negation; when it clears, only one
        # match fires per cycle and the leftover completes on the next one
        net = build("pattern p as {:a, x} and not {:m, y}[window: {10, :secs}]")
        feed(net, "a", (1,), 0)
        feed(net, "a", (2,), 1_000)
        feed(net, "m", (1,), 2_000)
        results = net.advance_time(12_000)  # blocker clears exactly here
        assert [(m.at, m.bindings["x"]) for m in results] == [(12_000, 1)]
        leftover = feed(net, "zz", (), 13_000)  # any cycle trigger suffices
        assert [(m.at, m.bindings["x"]) for m in leftover] == [(13_000, 2)]


class TestConsume:
    # a match consumes its messages from every slot of its pattern that holds
    # them, in every alternative; each case is checked against the oracle

    def replay(self, text, *events):
        trace = [MessageEvent(ts, Symbol(tag), attrs) for tag, attrs, ts in events]
        diff = differential(compile_program(expand(parse_program(text))), trace, None)
        assert diff.divergence() == ""
        return [(m.at, [x.id for x in m.messages]) for m in diff.engine_matches], diff.network

    def test_a_consumed_message_leaves_the_other_alternatives(self):
        # {:a, 1} waits in both alternatives' :a slots; once the first
        # alternative consumes it at 10, the second has no :a for {:c, 1}
        matches, net = self.replay(
            "pattern p as {:a, x} and {:b, x} or {:a, x} and {:c, x}",
            ("a", (1,), 0), ("b", (1,), 10), ("c", (1,), 20),
        )
        assert matches == [(10, [1, 2])]
        assert net.buffered_total() == 1  # the {:c, 1}

    def test_a_consumed_message_leaves_every_slot_of_its_type(self):
        # every :a waits in both slots: the match at 10 takes ids 1 and 2 out
        # of both, and id 3 waits in both with no partner
        matches, net = self.replay(
            "pattern p as {:a, x} and {:a, y}",
            ("a", (1,), 0), ("a", (2,), 10), ("a", (3,), 20),
        )
        assert matches == [(10, [1, 2])]
        assert net.buffered_total() == 2


class TestAgenda:
    def test_lifetime_death_joins_the_next_cycle(self):
        # no timer announces a blocker's death under a lifetime: the pattern
        # joins the agenda at the next cycle, which the death does not start,
        # as the oracle evaluates only at arrivals and timers
        text = "pattern p as {:a, x} and not {:m, x}"
        net = build(text, lifetime_ms=1_000)
        assert feed(net, "m", (1,), 0) == []
        assert feed(net, "a", (1,), 500) == []  # blocked
        assert net.advance_time(1_200) == []  # the blocker died at 1,001
        assert net.cycle == 2
        results = feed(net, "zz", (), 1_300)
        assert [(m.pattern, m.at, m.cycle) for m in results] == [("p", 1_300, 3)]
        trace = [
            MessageEvent(0, Symbol("m"), (1,)),
            MessageEvent(500, Symbol("a"), (1,)),
            AdvanceEvent(1_200),
            MessageEvent(1_300, Symbol("zz"), ()),
        ]
        diff = differential(compile_program(expand(parse_program(text))), trace, 1_000)
        assert diff.divergence() == ""
        assert [m.cycle for m in diff.oracle.results] == [3]

    def test_death_wakes_a_pattern_with_an_alternative_it_can_change(self):
        # the first alternative is delta and cannot gain from a death, but the
        # blocker's death unblocks the second, so the pattern is evaluated
        text = "pattern p as {:a, x} and {:b, x} or {:c, y} and not {:m, y}"
        trace = [
            MessageEvent(0, Symbol("m"), (1,)),
            MessageEvent(900, Symbol("c"), (1,)),  # blocked
            MessageEvent(1_300, Symbol("zz"), ()),  # the blocker died at 1,001
        ]
        diff = differential(compile_program(expand(parse_program(text))), trace, 1_000)
        assert diff.divergence() == ""
        assert [(m.pattern, m.at, m.cycle) for m in diff.engine_matches] == [("p", 1_300, 3)]

    def test_pattern_is_evaluated_only_when_its_state_moves(self, monkeypatch):
        # an interval bounds the retention of both types; each death falls on
        # the first cycle at or after it, where it only drops the dead heads:
        # `pair` is a delta pattern whose last evaluation found nothing, and a
        # death cannot create a combination
        evaluated = []
        evaluate = sprw.engine.evaluate_pattern

        def recording(cp, get_candidates, now, *args):
            evaluated.append((cp.name, now))
            return evaluate(cp, get_candidates, now, *args)

        monkeypatch.setattr(sprw.engine, "evaluate_pattern", recording)
        net = build(
            "pattern pair as {:a, x} and {:b, x}, options: [interval: {1, :secs}, seq: true]\n"
            "pattern other as {:c, x}"
        )
        feed(net, "b", (1,), 0)  # the readiness gate skips: no {:a} yet
        # the keys agree, so the gate lets the evaluation run, but the {:b}
        # precedes the {:a}, which `seq` forbids
        feed(net, "a", (1,), 10)
        for ts in (20, 30, 1_100, 1_200):
            feed(net, "zz", (), ts)
        assert evaluated == [("pair", 10)]
        assert net.buffered_total() == 0

    @pytest.mark.parametrize("text, lifetime_ms, live", [
        ("pattern p as {:a, x} and {:b, y}, options: [interval: {1, :secs}]", None, 101),
        ("pattern p as {:a, x} and {:b, y}", 100, 11),
    ])
    def test_a_pattern_the_readiness_gate_skips_sheds_its_dead(self, text, lifetime_ms, live):
        # no `:b` ever arrives, so no evaluation reads the `:a` slot: each
        # death must still drop its message, leaving only the live ones
        net = build(text, lifetime_ms)
        for i in range(2_000):
            feed(net, "a", (i,), 10 * i)
        assert net.buffered_total() <= live


class TestGuardTypes:
    """A guard runs on values of any type; a wrong one is a diagnostic,
    reported once per episode, by the engine as by the oracle."""

    @pytest.mark.parametrize("guard, value, fires, kinds", [
        ("not x", False, True, []),
        ("not x", 1, False, ["TypeMismatch"]),
        ("x and true", 1, False, ["TypeMismatch"]),
        ("true and x", 1, False, ["TypeMismatch"]),
        ("x or true", 1, False, ["TypeMismatch"]),
        ("false or x", 1, False, ["TypeMismatch"]),
        ("x + 1 > 0", Symbol("s"), False, ["TypeMismatch"]),
        ("x", 1, False, ["TypeMismatch"]),
    ])
    def test_guard_value_types(self, guard, value, fires, kinds):
        compiled = compile_program(expand(parse_program(f"pattern p as {{:a, x}} when {guard}")))
        trace = [MessageEvent(0, Symbol("a"), (value,)), MessageEvent(1, Symbol("a"), (value,))]
        diff = differential(compiled, trace)
        assert diff.divergence() == ""
        assert len(diff.engine_matches) == (2 if fires else 0)
        assert [d.kind for d in diff.network.diagnostics] == kinds


class TestAdvanceTime:
    NO_MOTION = (
        "pattern no_motion as not {:motion, m, :on, room}[window: {2, :mins}] "
        "and {:light, l, :on, room}, options: [last: true]"
    )

    def test_negation_fires_at_blocker_plus_window(self):
        net = build(self.NO_MOTION)
        feed(net, "light", ("l1", Symbol("on"), Symbol("living")), 0)
        feed(net, "motion", ("m1", Symbol("on"), Symbol("living")), 30_000)
        results = net.advance_time(150_000)
        assert [(m.pattern, m.at) for m in results] == [("no_motion", 150_000)]

    def test_new_blocker_resets_deadline(self):
        net = build(self.NO_MOTION)
        feed(net, "light", ("l1", Symbol("on"), Symbol("living")), 0)
        feed(net, "motion", ("m1", Symbol("on"), Symbol("living")), 30_000)
        feed(net, "motion", ("m1", Symbol("on"), Symbol("living")), 140_000)
        assert net.advance_time(150_000) == []
        results = net.advance_time(400_000)
        assert [m.at for m in results] == [260_000]

    def test_zero_elapse_is_a_no_op(self):
        net = build(self.NO_MOTION)
        feed(net, "light", ("l1", Symbol("on"), Symbol("living")), 0)
        before = net.buffered_total()
        assert net.advance_time(net.clock) == []
        assert net.buffered_total() == before


class TestAccumulation:
    def test_count_with_free_code(self):
        net = build(corpus_text("fig13c"))
        out = []
        for i, (b, code) in enumerate([("b1", "c1"), ("b1", "c2"), ("b2", "c3"), ("b1", "c1")]):
            out += feed(net, "heating_f", (b, Symbol(code)), i * 1000)
        assert len(out) == 1
        assert [m.id for m in out[0].messages] == [1, 2, 4]
        assert out[0].at == 3000

    def test_count_with_must_distinct(self):
        net = build("pattern hf as {:heating_f, id, !code}[count: 3]")
        out = []
        for i, code in enumerate(["c1", "c1", "c2", "c3"]):
            out += feed(net, "heating_f", ("b1", Symbol(code)), i * 1000)
        assert len(out) == 1
        assert [m.id for m in out[0].messages] == [1, 3, 4]

    def test_bare_variable_forces_equal_values(self):
        net = build("pattern hf as {:heating_f, id, code}[count: 3]")
        out = []
        for i, code in enumerate(["c1", "c2", "c1", "c1"]):
            out += feed(net, "heating_f", ("b1", Symbol(code)), i * 1000)
        assert len(out) == 1
        assert [m.id for m in out[0].messages] == [1, 3, 4]  # all code c1

    def test_window_fold_guard(self):
        net = build(corpus_text("fig15"))
        day = 86_400_000
        out = []
        for i, v in enumerate([70, 80, 60]):
            out += feed(net, "consumption", ("m1", v), (i + 1) * day)
        alerts = [m for m in out if m.pattern == "electricity_alert"]
        assert len(alerts) == 1
        assert alerts[0].intermediates == {"total": 210}
        assert len(alerts[0].messages) == 3

    def test_window_expiry_drops_candidates(self):
        net = build("pattern w as {:c, m, @v}[window: {10, :secs}] "
                    "|> fold(0, fn({_, _, v}, acc) -> acc + v end) |> bind(t) when t > 100")
        feed(net, "c", ("m1", 60), 0)
        feed(net, "c", ("m1", 50), 5_000)  # total 110 > 100 fires at 5 s
        out = feed(net, "c", ("m1", 60), 20_000)  # first two long gone
        assert out == []
        out = feed(net, "c", ("m1", 50), 25_000)
        assert len(out) == 1
        assert [m.id for m in out[0].messages] == [3, 4]

    def test_hybrid_count_wins_inside_window(self):
        net = build(corpus_text("fig14b"))
        out = []
        for i in range(3):
            out += feed(net, "heating_f", ("b1", Symbol(f"c{i}")), i * 60_000)
        assert len(out) == 1
        assert len(out[0].messages) == 3

    def test_count_slot_below_target_is_not_evaluated(self, monkeypatch):
        # no count group can reach its target from fewer buffered messages,
        # so the readiness gate skips `c` until its third message; `g` may
        # settle for fewer, as its window lets the guard arbitrate
        evaluated = []
        evaluate = sprw.engine.evaluate_pattern

        def recording(cp, *args):
            evaluated.append(cp.name)
            return evaluate(cp, *args)

        monkeypatch.setattr(sprw.engine, "evaluate_pattern", recording)
        net = build(
            "pattern c as {:a, x}[count: 3]\n"
            "pattern g as {:a, x}[count: 3, window: {1, :secs}] when x > 0"
        )
        out = []
        for ts in (0, 10, 20):
            out += feed(net, "a", (1,), ts)
        assert [(m.pattern, m.at) for m in out] == [("g", 0), ("g", 10), ("c", 20), ("g", 20)]
        assert evaluated == ["g", "g", "c", "g"]

    def test_hybrid_does_not_fire_below_count_without_guard(self):
        net = build(corpus_text("fig14b"))
        out = feed(net, "heating_f", ("b1", Symbol("c0")), 0)
        out += net.advance_time(10_000_000)
        assert out == []


class TestDistinctnessSoundness:
    # over random streams: any accepted count-n group has pairwise-distinct
    # values under !x, all-equal values under bare x, and no constraint at all
    # under @x
    def run_marker(self, marker):
        import random

        rng = random.Random(90_125)
        net = build(f"pattern p as {{:m, {marker}x}}[count: 3]")
        groups = []
        for i in range(300):
            _, results = net.ingest(Symbol("m"), (rng.randint(1, 4),), i * 10)
            for m in results:
                groups.append([msg.attrs[0] for msg in m.messages])
        return groups

    def test_must_distinct_pairwise(self):
        groups = self.run_marker("!")
        assert groups
        for g in groups:
            assert len(set(g)) == len(g) == 3

    def test_bare_all_equal(self):
        groups = self.run_marker("")
        assert groups
        for g in groups:
            assert len(set(g)) == 1 and len(g) == 3

    def test_may_distinct_unconstrained(self):
        groups = self.run_marker("@")
        assert groups
        assert all(len(g) == 3 for g in groups)
        # with no constraint every third message completes a group
        assert len(groups) == 100


class TestOrAlternatives:
    def test_left_alternative_preferred(self):
        net = build("pattern p as {:a, x} or {:b, x}")
        feed(net, "b", (1,), 0)
        results = feed(net, "a", (2,), 10)
        # both alternatives are complete; the left one matches and consumes
        assert len(results) == 1
        assert results[0].messages[0].type_tag == Symbol("a")
        later = net.advance_time(20)
        assert later == []  # nothing else happens without a new cycle trigger

    def test_right_alternative_used_when_left_empty(self):
        net = build("pattern p as {:a, x} or {:b, x}")
        results = feed(net, "b", (1,), 0)
        assert len(results) == 1
        assert results[0].messages[0].type_tag == Symbol("b")


class TestGc:
    def test_lifetime_removal(self):
        net = build("pattern pair as {:a, x} and {:b, x}", lifetime_ms=3_600_000)
        feed(net, "a", (1,), 0)
        net.advance_time(7_200_000)
        assert net.gc(7_200_000) == 1
        assert net.gc(7_200_000) == 0  # idempotent

    def test_gc_ahead_of_the_clock_moves_the_pattern(self):
        # gc(now) with now past the clock removes a blocker that is still
        # live at the clock: that moves the pattern's state like any removal
        net = build("pattern p as {:a, x} and not {:m, x}", lifetime_ms=1_000)
        feed(net, "m", (1,), 0)
        assert feed(net, "a", (1,), 500) == []
        assert net.gc(1_200) == 1
        assert [(m.pattern, m.at) for m in feed(net, "zz", (), 600)] == [("p", 600)]

    def test_window_referenced_message_retained(self):
        net = build(corpus_text("fig15"))
        week = 604_800_000
        feed(net, "consumption", ("m1", 10), 0)
        net.advance_time(2 * week)
        assert net.gc(2 * week) == 0  # still inside the three-week window

    def test_retention_bound_from_windows(self):
        # no helper pattern: the only reference is the three-week window, so
        # the retention bound is finite and gc drops the aged message even
        # before any window timer has run
        net = build(
            "pattern alert as {:consumption, meter, @value}[window: {3, :weeks}] "
            "|> fold(0, fn({_, _, v}, acc) -> acc + v end) |> bind(total) when total > 200"
        )
        week = 604_800_000
        feed(net, "consumption", ("m1", 10), 0)
        assert net.gc(4 * week) == 1  # beyond every referencing window
        assert net.gc(4 * week) == 0

    def test_guard_failure_leaves_buffers_untouched(self, monkeypatch):
        rejections = guard_no_consume(monkeypatch)
        net = build("pattern p as {:a, x} when x > 10")
        feed(net, "a", (1,), 0)
        assert rejections == [("p", True)]
        assert net.buffered_total() == 1


INTERVAL_JOINS = (
    "pattern pair as {:a, x, p} and {:b, x, q}, options: [interval: {3, :secs}]\n"
    "pattern triple as {:c, x, _} and {:d, x, _} and {:e, x, _}, "
    "options: [interval: {3, :secs}]\n"
    "react_to pair, with: emit(paired)\n"
)


def _interval_join_events(n):
    rng = random.Random(7)
    for i in range(n):
        tag = "abcde"[i % 5]
        if tag in "ab":
            attrs = (rng.randrange(60), rng.randrange(1000))
        else:
            attrs = (rng.randrange(8), rng.randrange(2))
        yield MessageEvent(i * 20, Symbol(tag), attrs)


@pytest.mark.parametrize(
    "text, events",
    [
        (_perf_program(), [*_perf_events(1000), AdvanceEvent(20_000)]),
        (INTERVAL_JOINS, [*_interval_join_events(1000), AdvanceEvent(30_000)]),
    ],
    ids=["criterion7", "interval_joins"],
)
def test_replay_and_oracle_leave_no_cyclic_garbage(text, events):
    # everything the engine, the shared search and the oracle drop is freed
    # by reference counting, so no collection has anything to find
    gc.collect()
    gc.disable()
    try:
        lines, diagnostics, cell = run_records(parse_program(text), events)
        oracle = oracle_run(cell.compiled, events)
        matched = len(lines)
        assert gc.collect() == 0
        del cell
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not diagnostics and lines
    assert matched == len(oracle.results) > 10
