from __future__ import annotations

import pytest

from sprw.actor import FiredReaction, deliver, react_to, remove, remove_reactions, spawn, step
from sprw.combine import EvalOutcome
from sprw.errors import ActorError
from sprw.values import Symbol

from conftest import corpus_text

OPEN_WINDOW = "pattern open_window as {:window, id, :open, location}\n"


def test_spawn_prebinds_program_reactions():
    cell = spawn(corpus_text("listing4"))
    assert {k: [r.label for r in v] for k, v in cell.reactions.items()} == {
        "on_motion": ["turn_on_light"],
        "no_motion": ["turn_off_light"],
    }


def test_match_without_reaction_still_reported_and_consumed():
    cell = spawn(OPEN_WINDOW)
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    fired = step(cell, 0)
    assert fired == []
    assert [r["reaction"] for r in cell.outputs] == [None]
    assert cell.network.buffered_total() == 0


def test_reactions_fire_in_binding_order():
    calls = []
    cell = spawn(OPEN_WINDOW)
    react_to(cell, "open_window", "turn_off_heating",
             lambda msgs, inter, state: calls.append("heating") or state)
    react_to(cell, "open_window", "turn_off_cooling",
             lambda msgs, inter, state: calls.append("cooling") or state)
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    fired = step(cell, 0)
    assert calls == ["heating", "cooling"]
    assert [f.label for f in fired] == ["turn_off_heating", "turn_off_cooling"]


def test_remove_one_reaction():
    cell = spawn(OPEN_WINDOW)
    seen = []
    react_to(cell, "open_window", "turn_off_heating",
             lambda m, i, s: seen.append("heating") or s)
    react_to(cell, "open_window", "turn_off_cooling",
             lambda m, i, s: seen.append("cooling") or s)
    remove(cell, "turn_off_cooling", "open_window")
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    step(cell, 0)
    assert seen == ["heating"]


def test_remove_absent_reaction_is_an_error():
    cell = spawn(OPEN_WINDOW)
    with pytest.raises(ActorError) as err:
        remove(cell, "nothing_bound", "open_window")
    assert err.value.code == "UnknownReaction"
    with pytest.raises(ActorError) as err:
        react_to(cell, "no_such_pattern", "r")
    assert err.value.code == "UnknownPattern"


def test_remove_reactions_clears_but_matches_continue():
    cell = spawn(OPEN_WINDOW)
    react_to(cell, "open_window", "r1", lambda m, i, s: s)
    remove_reactions(cell, "open_window")
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    fired = step(cell, 0)
    assert fired == []
    assert len(cell.outputs) == 1


def test_state_threads_through_reactions():
    cell = spawn(OPEN_WINDOW, initial_state=0)
    react_to(cell, "open_window", "inc1", lambda m, i, s: s + 1)
    react_to(cell, "open_window", "inc2", lambda m, i, s: s + 10)
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    fired = step(cell, 0)
    assert [(f.state_before, f.state_after) for f in fired] == [(0, 1), (1, 11)]
    assert cell.state == 11


def test_failing_reaction_aborts_step_and_rolls_back():
    def boom(m, i, s):
        raise RuntimeError("nope")

    cell = spawn(OPEN_WINDOW, initial_state="initial")
    react_to(cell, "open_window", "ok", lambda m, i, s: "after-ok")
    react_to(cell, "open_window", "boom", boom)
    react_to(cell, "open_window", "never", lambda m, i, s: "after-never")
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    fired = step(cell, 0)
    assert [f.label for f in fired] == ["ok"]
    assert cell.state == "after-ok"  # rollback to the failing reaction's before-state
    assert cell.diagnostics and cell.diagnostics[0].kind == "ReactionFailure"


def test_reaction_sees_messages_and_intermediates():
    program = (
        "pattern alert as {:c, m, @v}[window: {1, :hours}] "
        "|> fold(0, fn({_, _, v}, acc) -> acc + v end) |> bind(total) when total > 5\n"
    )
    got = {}

    cell = spawn(program)
    react_to(cell, "alert", "grab",
             lambda msgs, inter, state: got.update(n=len(msgs), **inter) or state)
    deliver(cell, "c", ("m1", 3), 0)
    step(cell, 0)
    deliver(cell, "c", ("m1", 4), 1000)
    step(cell, 1000)
    assert got == {"n": 2, "total": 7}


def test_pairwise_fifo_between_actors():
    sink = spawn("pattern any as {:ping, n}\n")
    order = []
    react_to(sink, "any", "log", lambda m, i, s: order.append(m[0].attrs[0]) or s)
    for n in range(5):
        deliver(sink, "ping", (n,), n * 10)
    step(sink, 100)
    assert order == [0, 1, 2, 3, 4]


def test_rebinding_applies_to_next_match_only():
    cell = spawn(OPEN_WINDOW)
    seen = []
    react_to(cell, "open_window", "first", lambda m, i, s: seen.append("first") or s)
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    step(cell, 0)
    remove(cell, "first", "open_window")
    react_to(cell, "open_window", "second", lambda m, i, s: seen.append("second") or s)
    deliver(cell, "window", ("w2", Symbol("open"), Symbol("kitchen")), 10)
    step(cell, 10)
    assert seen == ["first", "second"]


def test_rebinding_inside_a_reaction_is_deferred_to_step_end():
    cell = spawn(OPEN_WINDOW)
    seen = []

    def rebinder(msgs, inter, state):
        n = sum(1 for s in seen if s == "rebinder") + 1
        react_to(cell, "open_window", f"late{n}", lambda m, i, s: seen.append("late") or s)
        seen.append("rebinder")
        return state

    react_to(cell, "open_window", "rebinder", rebinder)
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    deliver(cell, "window", ("w2", Symbol("open"), Symbol("kitchen")), 0)
    step(cell, 0)
    # both matches happen in this step; no 'late' reaction was bound yet
    assert seen == ["rebinder", "rebinder"]
    deliver(cell, "window", ("w3", Symbol("open"), Symbol("kitchen")), 10)
    step(cell, 10)
    assert seen[2:] == ["rebinder", "late", "late"]


def test_unbinding_inside_a_reaction_is_deferred_to_step_end():
    cell = spawn(OPEN_WINDOW)
    seen = []

    def unbinder(msgs, inter, state):
        if "unbinder" not in seen:
            remove(cell, "logger", "open_window")
        seen.append("unbinder")
        return state

    react_to(cell, "open_window", "unbinder", unbinder)
    react_to(cell, "open_window", "logger", lambda m, i, s: seen.append("logger") or s)
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    deliver(cell, "window", ("w2", Symbol("open"), Symbol("kitchen")), 0)
    step(cell, 0)
    # the removed reaction still runs for every match of this step
    assert seen == ["unbinder", "logger", "unbinder", "logger"]
    deliver(cell, "window", ("w3", Symbol("open"), Symbol("kitchen")), 10)
    step(cell, 10)
    assert seen[4:] == ["unbinder"]


def test_clearing_reactions_inside_a_reaction_is_deferred_to_step_end():
    cell = spawn(OPEN_WINDOW)
    seen = []

    def clearer(msgs, inter, state):
        remove_reactions(cell, "open_window")
        seen.append(msgs[0].attrs[0])
        return state

    react_to(cell, "open_window", "clearer", clearer)
    deliver(cell, "window", ("w1", Symbol("open"), Symbol("kitchen")), 0)
    deliver(cell, "window", ("w2", Symbol("open"), Symbol("kitchen")), 0)
    step(cell, 0)
    assert seen == ["w1", "w2"]
    assert cell.outputs == []
    deliver(cell, "window", ("w3", Symbol("open"), Symbol("kitchen")), 10)
    assert step(cell, 10) == []
    assert seen == ["w1", "w2"]
    assert [r["reaction"] for r in cell.outputs] == [None]  # no reaction bound


def test_scenario5_actor_fires_both_scenes():
    cell = spawn(corpus_text("fig18c"))
    sequence = [
        ("motion", ("m1", Symbol("on"), Symbol("front_door")), 0),
        ("contact", ("c1", Symbol("open"), Symbol("front_door")), 5_000),
        ("motion", ("m2", Symbol("on"), Symbol("entrance_hall")), 20_000),
        ("motion", ("m2", Symbol("on"), Symbol("entrance_hall")), 100_000),
        ("contact", ("c1", Symbol("open"), Symbol("front_door")), 110_000),
        ("motion", ("m1", Symbol("on"), Symbol("front_door")), 125_000),
    ]
    fired = []
    for tag, attrs, ts in sequence:
        deliver(cell, tag, attrs, ts)
        fired += step(cell, ts)
    labels = [f.label for f in fired]
    assert labels == ["activate_home_scene", "activate_leave_scene"]


def test_two_patterns_fire_in_declaration_order_for_one_message():
    cell = spawn("pattern p as {:a, x}\npattern q as {:a, x}\n"
                 "react_to q, with: emit(rq)\nreact_to p, with: emit(rp)\n")
    deliver(cell, "a", (1,), 0)
    fired = step(cell, 0)
    assert [f.label for f in fired] == ["rp", "rq"]  # pattern order, not binding order


def test_carried_timestamp_wins_over_clock():
    cell = spawn("pattern p as {:a, x}\nreact_to p, with: emit(r)\n")
    deliver(cell, "a", (1,), 500)
    step(cell, 1_000)
    deliver(cell, "a", (2,), None)  # live send: stamped at the actor clock
    step(cell, 1_000)
    assert [r["at"] for r in cell.outputs] == [500, 1_000]


def test_fired_reactions_and_outcomes_are_immutable_named_records():
    cell = spawn("pattern p as {:a, x}\n")
    react_to(cell, "p", "count", lambda msgs, inter, state: state + 1)
    cell.state = 0
    deliver(cell, "a", (1,), 0)
    (fired,) = step(cell, 0)
    assert FiredReaction._fields == ("label", "match", "state_before", "state_after")
    assert (fired.label, fired.match.pattern, fired.state_before, fired.state_after) == (
        "count", "p", 0, 1)
    assert EvalOutcome._fields == ("result", "guard_failed", "diagnostics")
    outcome = EvalOutcome(fired.match)
    assert (outcome.result, outcome.guard_failed, outcome.diagnostics) == (fired.match, False, ())
    for record, field in ((fired, "label"), (outcome, "result"), (outcome, "guard_failed")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
