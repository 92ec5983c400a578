from __future__ import annotations

import pytest
from hypothesis import given, settings

from sprw.compile import compile_program
from sprw.errors import CodedError, ExpandError
from sprw.expand import expand
from sprw.fuzz import differential
from sprw.nodes import (
    Bind,
    Const,
    ElemPattern,
    Fold,
    FoldFn,
    Lit,
    MayDistinct,
    NamedRef,
    PatternAst,
    Program,
    Selector,
    Var,
    VarRef,
    body_leaves,
)
from sprw.parser import parse_program
from sprw.printer import pattern_text
from sprw.tracefile import MessageEvent
from sprw.values import Symbol

from conftest import corpus_text
from test_printer_roundtrip import programs


def expand_text(text):
    return expand(parse_program(text))


def leaves_of(program, name):
    return body_leaves(program.pattern_named(name).body)


def test_inline_guard_becomes_constant():
    program = expand_text(corpus_text("fig8"))
    (leaf,) = leaves_of(program, "kitchen_window_b")
    assert leaf.base == Selector(
        Symbol("window"),
        (Var("id"), Const(Symbol("open")), Const(Symbol("kitchen"))),
    )


def test_referenced_guard_is_conjoined():
    program = expand_text(corpus_text("fig8"))
    refd = program.pattern_named("kitchen_window_a")
    assert refd.guard is not None
    (leaf,) = leaves_of(program, "kitchen_window_a")
    assert isinstance(leaf.base, Selector)


def test_unhygienic_sharing_fig9():
    program = expand_text(corpus_text("fig9"))
    leaves = leaves_of(program, "occupied_home")
    names = [
        {t.name for t in leaf.base.terms if isinstance(t, Var)} for leaf in leaves
    ]
    assert all("id" in n for n in names)


def test_alias_removes_sharing_fig10c():
    program = expand_text(corpus_text("fig10c"))
    leaves = leaves_of(program, "occupied_home")
    assert {t.name for t in leaves[0].base.terms if isinstance(t, Var)} == {"id"}
    assert {t.name for t in leaves[1].base.terms if isinstance(t, Var)} == {"cid"}
    assert {t.name for t in leaves[2].base.terms if isinstance(t, Var)} == {"mid"}


def test_distinct_mark_refinement_fig15():
    program = expand_text(corpus_text("fig15"))
    (leaf,) = leaves_of(program, "electricity_alert")
    assert MayDistinct("value") in leaf.base.terms
    assert leaf.operators  # window carried over from the reference site


def test_binding_must_reference_declared_pattern():
    with pytest.raises(ExpandError) as err:
        expand_text("pattern p as {:a, x}\nreact_to q, with: emit(r)")
    assert err.value.code == "UnknownPatternRef"


def test_unknown_reference():
    with pytest.raises(ExpandError) as err:
        expand_text("pattern p as missing_one and {:a, x}")
    assert err.value.code == "UnknownPatternRef"


def test_forward_reference_is_unknown():
    with pytest.raises(ExpandError) as err:
        expand_text("pattern p as q\npattern q as {:a, x}")
    assert err.value.code == "UnknownPatternRef"


def test_alias_collision():
    with pytest.raises(ExpandError) as err:
        expand_text(
            "pattern base as {:a, x, y}\npattern p as base{x ~> y}"
        )
    assert err.value.code == "AliasCollision"


def test_inline_guard_on_constant():
    with pytest.raises(ExpandError) as err:
        expand_text(
            "pattern base as {:a, x}\npattern p as base{x = 1, x = 2}"
        )
    assert err.value.code == "InlineGuardOnConst"


def test_refinement_unknown_var():
    with pytest.raises(ExpandError) as err:
        expand_text("pattern base as {:a, x}\npattern p as base{zz = 1}")
    assert err.value.code == "RefinementUnknownVar"


def test_referenced_options_rejected():
    with pytest.raises(ExpandError) as err:
        expand_text(
            "pattern base as {:a, x}, options: [last: true]\npattern p as base and {:b, y}"
        )
    assert err.value.code == "ReferencedPatternHasOptions"


def test_composite_reference_splices():
    program = expand_text(
        "pattern pair as {:a, x} and {:b, x}\n"
        "pattern triple as pair and {:c, x}\n"
    )
    leaves = leaves_of(program, "triple")
    assert len(leaves) == 3
    assert [leaf.base.type_tag.name for leaf in leaves] == ["a", "b", "c"]


def test_negating_composite_reference_fails():
    with pytest.raises(ExpandError) as err:
        expand_text(
            "pattern pair as {:a, x} and {:b, x}\n"
            "pattern p as not pair and {:c, x}\n"
        )
    assert err.value.code == "NegatedCompositeRef"


def test_operator_merge_through_reference():
    program = expand_text(
        "pattern fail as {:f, id, @code}\n"
        "pattern burst as fail[count: 3, window: {60, :mins}]\n"
    )
    (leaf,) = leaves_of(program, "burst")
    assert len(leaf.operators) == 2


def test_chained_references_expand_transitively():
    program = expand_text(corpus_text("fig18c"))
    leaves = leaves_of(program, "occupied_home")
    assert len(leaves) == 3
    assert all(isinstance(leaf.base, Selector) for leaf in leaves)
    front, contact, hall = leaves
    assert front.base.terms[2] == Const(Symbol("front_door"))
    assert hall.base.terms[0] == Var("mid")
    assert contact.base.type_tag == Symbol("contact")


@settings(max_examples=150, deadline=None)
@given(programs())
def test_expand_is_idempotent(program):
    once = expand(program)
    assert expand(once) == once


@settings(max_examples=150, deadline=None)
@given(programs())
def test_expand_preserves_leaf_count_without_refs(program):
    # generated programs contain no named references, so leaf counts are stable
    expanded = expand(program)
    for before, after in zip(program.patterns, expanded.patterns):
        assert len(body_leaves(before.body)) == len(body_leaves(after.body))


def test_leaf_count_sums_over_references():
    program = expand_text(
        "pattern pair as {:a, x} and {:b, x}\n"
        "pattern big as pair and pair and {:c, y}\n"
    )
    assert len(leaves_of(program, "big")) == 5


WINDOWED = "pattern w as {:a, v, u}[window: {1, :secs}]\n"
COMPOSITE = "pattern c as {:x, v} and {:y, v}\n"
OR_PAIRS = "".join(f"pattern r{i} as {{:a{i}, x}} or {{:b{i}, x}}\n" for i in range(10))


@pytest.mark.parametrize("source, code, expanded", [
    ("pattern n as not {:x, v}\npattern p as {:y, v} and not n", "NegatedNegation", True),
    (WINDOWED + "pattern p as w[window: {2, :secs}]", "DuplicateOperator", True),
    (COMPOSITE + "pattern p as c[count: 2]", "OperatorsOnCompositeRef", True),
    (COMPOSITE + "pattern p as c |> fold(0, fn({_, v}, acc) -> acc + v end)",
     "TransformersOnCompositeRef", True),
    (WINDOWED + "pattern p as w{nope ~> z}", "RefinementUnknownVar", True),
    (WINDOWED + "pattern p as w{!nope}", "RefinementUnknownVar", True),
    (WINDOWED + "pattern p as w{v = u}", "InlineGuardNotConst", True),
    (WINDOWED + "pattern p as w{v = not 1}", "InlineGuardNotConst", True),
    ("pattern p as {:a, x} and not {:b, y}[window: {1, :secs}]"
     " |> fold(0, fn({_}, acc) -> acc + 1 end)", "TransformersOnNegated", True),
    ("pattern a as {:x, v}\npattern b as a and {:y, v}", "UnexpandedRef", False),
    # 1,024 alternatives from the product, then one more from the sum
    (OR_PAIRS + "pattern p as " + " and ".join(f"r{i}" for i in range(10))
     + "\npattern big as p or {:z, x}", "DnfTooLarge", True),
])
def test_front_end_rejects(source, code, expanded):
    program = parse_program(source)
    with pytest.raises(CodedError) as err:
        compile_program(expand(program) if expanded else program)
    assert err.value.code == code


def test_inline_guard_negates_a_boolean_literal():
    program = expand_text("pattern w as {:a, v, u}\npattern p as w{v = not true}")
    (leaf,) = leaves_of(program, "p")
    assert leaf.base.terms == (Const(False), Var("u"))


def test_bind_before_fold_through_a_reference():
    # the parser rejects this order, so the program is built by hand
    fold = Fold(Lit(0), FoldFn((None, None), "acc", VarRef("acc")))
    program = Program((
        PatternAst("w", ElemPattern(False, Selector(Symbol("a"), (Var("v"),)))),
        PatternAst("p", ElemPattern(False, NamedRef("w"), (), (Bind("t"), fold))),
    ), ())
    with pytest.raises(ExpandError) as err:
        expand(program)
    assert err.value.code == "BindWithoutFold"


GUARDED = "pattern a as {:x, v} when v > 1\npattern b as a and {:y, v} when v < 5\n"


def test_a_referenced_guard_is_conjoined_with_the_own_guard():
    program = expand_text(GUARDED)
    assert pattern_text(program.pattern_named("b")) == (
        "pattern b as {:x, v} and {:y, v} when v > 1 and v < 5"
    )


@pytest.mark.parametrize("v, fired", [(3, ["a", "b"]), (1, []), (7, ["a"])])
def test_conjoined_guard_fires_as_the_oracle_does(v, fired):
    trace = [MessageEvent(0, Symbol("x"), (v,)), MessageEvent(1, Symbol("y"), (v,))]
    diff = differential(compile_program(expand_text(GUARDED)), trace)
    assert diff.divergence() == ""
    assert [m.pattern for m in diff.engine_matches] == fired
