from __future__ import annotations

import itertools
import random
from functools import reduce

import pytest
from sprw.combine import evaluate_pattern
from sprw.compile import compile_program
from sprw.errors import EvalError
from sprw.expand import expand
from sprw.matching import Message, apply_transformers, eval_expr
from sprw.nodes import BinOp, Lit, VarRef
from sprw.parser import parse_program
from sprw.values import Symbol

from spec import unify_selector


def sel_of(text):
    program = parse_program(f"pattern p as {text}")
    return program.patterns[0].body.alts[0].parts[0].base


def msg(i, ts, tag, *attrs):
    return Message(id=i, seq=i, ts=ts, type_tag=Symbol(tag), attrs=attrs)


OPEN_WINDOW = sel_of("{:window, id, :open, location}")


class TestUnify:
    def test_binds_variables(self):
        r = unify_selector(OPEN_WINDOW, msg(1, 0, "window", "w1", Symbol("open"), Symbol("kitchen")))
        assert r is not None
        env, _ = r
        assert env == {"id": "w1", "location": Symbol("kitchen")}

    def test_constant_mismatch(self):
        r = unify_selector(OPEN_WINDOW, msg(1, 0, "window", "w1", Symbol("closed"), Symbol("kitchen")))
        assert r is None

    def test_shared_variable_cannot_rebind(self):
        # the Fig 10.A bug: `id` bound to the motion sensor blocks the contact
        contact = sel_of("{:contact, id, :open, :front_door}")
        r = unify_selector(
            contact,
            msg(2, 1, "contact", "c1", Symbol("open"), Symbol("front_door")),
            env={"id": "m1"},
        )
        assert r is None

    def test_arity_and_tag_must_match(self):
        assert unify_selector(OPEN_WINDOW, msg(1, 0, "window", "w1", Symbol("open"))) is None
        assert unify_selector(OPEN_WINDOW, msg(1, 0, "door", "w1", Symbol("open"), 1)) is None

    def test_int_float_not_structurally_equal(self):
        exact = sel_of("{:m, 1}")
        assert unify_selector(exact, msg(1, 0, "m", 1.0)) is None
        assert unify_selector(exact, msg(1, 0, "m", 1)) is not None
        assert unify_selector(exact, msg(1, 0, "m", True)) is None

    def test_may_distinct_never_constrains(self):
        free = sel_of("{:m, @x}")
        r = unify_selector(free, msg(1, 0, "m", 5), env={"x": 7})
        assert r is not None
        assert r[0] == {"x": 7}  # untouched

    def test_must_distinct_tracks_values(self):
        d = sel_of("{:m, !x}")
        r = unify_selector(d, msg(1, 0, "m", 5))
        assert r is not None
        _, distinct = r
        assert distinct == {"x": [5]}
        assert unify_selector(d, msg(2, 1, "m", 5), distinct=distinct) is None
        r2 = unify_selector(d, msg(2, 1, "m", 6), distinct=distinct)
        assert r2 is not None and r2[1] == {"x": [5, 6]}

    def test_monotonicity_under_restriction(self):
        # success under an env implies success under any restriction of it
        sel = sel_of("{:m, a, b}")
        full = {"a": 1, "b": 2, "c": 3}
        message = msg(1, 0, "m", 1, 2)
        assert unify_selector(sel, message, env=full) is not None
        for keys in itertools.chain.from_iterable(
            itertools.combinations(full, k) for k in range(3)
        ):
            assert unify_selector(sel, message, env={k: full[k] for k in keys}) is not None


class TestEval:
    def test_numeric_comparison(self):
        assert eval_expr(BinOp(">", VarRef("value"), Lit(40)), {"value": 45}) is True

    def test_symbol_disjunction(self):
        e = BinOp(
            "or",
            BinOp("==", VarRef("location"), Lit(Symbol("bedroom"))),
            BinOp("==", VarRef("location"), Lit(Symbol("kitchen"))),
        )
        assert eval_expr(e, {"location": Symbol("garage")}) is False
        assert eval_expr(e, {"location": Symbol("kitchen")}) is True

    def test_total_guard(self):
        assert eval_expr(BinOp(">", VarRef("total"), Lit(200)), {"total": 210}) is True

    def test_unbound_variable(self):
        with pytest.raises(EvalError) as err:
            eval_expr(VarRef("nope"), {})
        assert err.value.code == "UnboundVariable"

    def test_type_mismatch_on_order(self):
        with pytest.raises(EvalError) as err:
            eval_expr(BinOp("<", Lit(Symbol("a")), Lit(1)), {})
        assert err.value.code == "TypeMismatch"

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            eval_expr(BinOp("/", Lit(1), Lit(0)), {})
        assert err.value.code == "DivisionByZero"

    @pytest.mark.parametrize("op, x, y", [
        ("*", 1e200, 1e200),  # inf
        ("-", 1e308, -1e308),  # inf
        ("*", 10 ** 2200, 10 ** 2200),  # 4,401 digits
        ("+", 10 ** 400, 1.5),  # the int does not fit a float
        ("/", 10 ** 400, 3),  # nor does the quotient
    ])
    def test_arithmetic_out_of_range(self, op, x, y):
        with pytest.raises(EvalError) as err:
            eval_expr(BinOp(op, VarRef("x"), VarRef("y")), {"x": x, "y": y})
        assert err.value.code == "OutOfRange"

    def test_arithmetic_at_the_edge_of_range(self):
        biggest = 10 ** 4300 - 1  # 4,300 digits
        assert eval_expr(BinOp("+", VarRef("x"), Lit(0)), {"x": biggest}) == biggest
        assert eval_expr(BinOp("*", Lit(1e200), Lit(1e100)), {}) == 1e300
        # comparisons stay unchecked
        assert eval_expr(BinOp("<", VarRef("x"), Lit(1.5)), {"x": 10 ** 400}) is False

    def test_int_promotes_to_float_in_comparisons(self):
        assert eval_expr(BinOp("==", Lit(1), Lit(1.0)), {}) is True
        assert eval_expr(BinOp("<", Lit(1), Lit(1.5)), {}) is True

    @pytest.mark.parametrize("op, x, y, want", [
        ("==", 10 ** 400, 1.5, False),  # the int fits no double
        ("!=", 10 ** 400, 1.5, True),
        ("==", 2 ** 53, 2 ** 53 + 1, False),  # both round to one double
        ("!=", 2 ** 53, 2 ** 53 + 1, True),
        ("==", 2 ** 53 + 1, float(2 ** 53), False),
        ("==", 2 ** 53, float(2 ** 53), True),
    ], ids=["huge-eq", "huge-ne", "ints-eq", "ints-ne", "int-float-eq", "equal"])
    def test_int_and_float_compare_exactly(self, op, x, y, want):
        assert eval_expr(BinOp(op, VarRef("x"), VarRef("y")), {"x": x, "y": y}) is want

    def test_short_circuit_avoids_errors(self):
        e = BinOp("or", Lit(True), BinOp("/", Lit(1), Lit(0)))
        assert eval_expr(e, {}) is True


class TestTransformers:
    def fold_chain(self, text):
        program = parse_program(f"pattern p as {text}")
        return program.patterns[0].body.alts[0].parts[0].transformers

    SUM_FOLD = "{:c, m, v}[count: 3] |> fold(0, fn({_, _, v}, acc) -> acc + v end) |> bind(total)"

    def test_fold_sums_values(self):
        msgs = [msg(i + 1, i, "c", "m1", v) for i, v in enumerate([70, 80, 60])]
        value, inter = apply_transformers(msgs, self.fold_chain(self.SUM_FOLD), {})
        expected = reduce(lambda acc, v: acc + v, [70, 80, 60], 0)  # independent fold
        assert value == expected == 210
        assert inter == {"total": 210}

    def test_fold_over_empty_group_yields_init(self):
        value, inter = apply_transformers([], self.fold_chain(self.SUM_FOLD), {})
        assert value == 0
        assert inter == {"total": 0}

    def test_arity_mismatch(self):
        msgs = [msg(1, 0, "c", "m1", 70, "extra")]
        with pytest.raises(EvalError) as err:
            apply_transformers(msgs, self.fold_chain(self.SUM_FOLD), {})
        assert err.value.code == "ArityMismatch"

    def test_later_bind_shadows(self):
        chain = self.fold_chain(
            "{:c, m, v}[count: 2] |> fold(0, fn({_, _, v}, acc) -> acc + v end) "
            "|> bind(t) |> fold(1, fn({_, _, v}, acc) -> acc * v end) |> bind(t)"
        )
        msgs = [msg(1, 0, "c", "m", 3), msg(2, 1, "c", "m", 4)]
        value, inter = apply_transformers(msgs, chain, {})
        assert inter == {"t": 12}
        assert value == 12


# --------------------------------------------------------------------------
# combination selection


def compiled_pattern(text):
    program = compile_program(expand(parse_program(text)))
    return program.patterns[0]


def run_selection(cp, buffers, now, blockers=None):
    slots = {**buffers, **(blockers or {})}  # keyed by cons_index

    def get_candidates(cons, key=None):
        return slots.get(cons.cons_index, [])

    return evaluate_pattern(cp, get_candidates, now)


class TestSelection:
    def test_last_in_picks_newest(self):
        cp = compiled_pattern("pattern p as {:hall, x}, options: [last: true]")
        buf = [msg(1, 10, "hall", 1), msg(2, 20, "hall", 2), msg(3, 30, "hall", 3)]
        outcome = run_selection(cp, {0: buf}, now=40)
        assert [m.id for m in outcome.result.messages] == [3]

    def test_fifo_picks_oldest(self):
        cp = compiled_pattern("pattern p as {:hall, x}")
        buf = [msg(1, 10, "hall", 1), msg(2, 20, "hall", 2)]
        outcome = run_selection(cp, {0: buf}, now=40)
        assert [m.id for m in outcome.result.messages] == [1]

    def test_seq_rejects_out_of_order_arrivals(self):
        # constituent order: door-motion, contact, hall-motion; arrivals reversed
        cp = compiled_pattern(
            "pattern p as {:dmotion, a} and {:contact, b} and {:hmotion, c}, options: [seq: true]"
        )
        buffers = {
            0: [msg(3, 30, "dmotion", 1)],
            1: [msg(2, 20, "contact", 1)],
            2: [msg(1, 10, "hmotion", 1)],
        }
        assert run_selection(cp, buffers, now=40).result is None
        ordered = {
            0: [msg(1, 10, "dmotion", 1)],
            1: [msg(2, 20, "contact", 1)],
            2: [msg(3, 30, "hmotion", 1)],
        }
        assert run_selection(cp, ordered, now=40).result is not None

    def test_interval_boundaries(self):
        cp = compiled_pattern(
            "pattern p as {:a, x} and {:b, y}, options: [interval: {60, :secs}]"
        )
        for t2, expected in ((59_000, True), (60_000, True), (61_000, False)):
            buffers = {0: [msg(1, 0, "a", 1)], 1: [msg(2, t2, "b", 1)]}
            outcome = run_selection(cp, buffers, now=t2)
            assert (outcome.result is not None) is expected, t2

    def test_guard_failure_consumes_nothing_and_blocks_cycle(self):
        cp = compiled_pattern("pattern p as {:a, x} when x > 10")
        buf = [msg(1, 0, "a", 1), msg(2, 1, "a", 99)]
        outcome = run_selection(cp, {0: buf}, now=5)
        # policy selects the oldest; its guard fails; no fallback to id 2
        assert outcome.result is None
        assert outcome.guard_failed is True


# brute-force extremality check: the DFS result must equal the lexicographic
# min/max over all valid combinations
def brute_force(cp, buffers, now):
    cons = cp.alternatives[0].positives
    pools = [buffers.get(c.cons_index, []) for c in cons]
    valid = []
    for combo in itertools.product(*pools):
        if len({m.id for m in combo}) != len(combo):
            continue
        env: dict = {}
        distinct: dict = {}
        ok = True
        for c, m in zip(cons, combo):
            r = unify_selector(c.selector, m, env, distinct)
            if r is None:
                ok = False
                break
            env, distinct = r
        if not ok:
            continue
        if cp.seq and any(
            (b.ts, b.seq) <= (a.ts, a.seq) for a, b in zip(combo, combo[1:])
        ):
            continue
        ts = [m.ts for m in combo]
        if cp.interval_ms is not None and max(ts) - min(ts) > cp.interval_ms:
            continue
        valid.append(combo)
    if not valid:
        return None
    key = lambda combo: tuple((m.ts, m.seq) for m in combo)
    return max(valid, key=key) if cp.last else min(valid, key=key)


SELECTION_PATTERNS = [
    "pattern p as {:a, x}",
    "pattern p as {:a, x}, options: [last: true]",
    "pattern p as {:a, x} and {:b, x} and {:c, y}",
    "pattern p as {:a, x} and {:b, x} and {:c, y}, options: [last: true]",
    "pattern p as {:a, x} and {:b, y} and {:c, y}, options: [seq: true]",
    "pattern p as {:a, x} and {:b, x} and {:c, x}, options: [interval: {5, :secs}, last: true]",
    "pattern p as {:a, x} and {:b, y} and {:c, x}, options: [seq: true, interval: {8, :secs}, last: true]",
]


@pytest.mark.parametrize("text", SELECTION_PATTERNS)
def test_selection_extremality_exhaustive(text):
    cp = compiled_pattern(text)
    rng = random.Random(42)
    for trial in range(120):
        buffers = {}
        i = 0
        for c_idx, tag in enumerate("abc"):
            size = rng.randint(0, 6)
            ts = 0
            buf = []
            for _ in range(size):
                i += 1
                ts += rng.randint(0, 3000)
                buf.append(msg(i, ts, tag, rng.randint(1, 2)))
            buffers[c_idx] = buf
        now = 20_000
        outcome = run_selection(cp, buffers, now)
        expected = brute_force(cp, buffers, now)
        got = tuple(outcome.result.messages) if outcome.result else None
        assert got == expected, (trial, got, expected)
