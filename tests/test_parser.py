from __future__ import annotations

import pytest

from sprw.errors import ParseError
from sprw.nodes import (
    AliasOp,
    AndGroup,
    Const,
    Count,
    Debounce,
    DistinctMark,
    ElemPattern,
    Fold,
    InlineGuard,
    NamedRef,
    Options,
    OrGroup,
    Selector,
    Var,
    Window,
    body_leaves,
)
from sprw.parser import parse_program
from sprw.values import Duration, Symbol

from conftest import CORPUS_FILES, SCENARIOS, corpus_text, fixture_path


def only_pattern(text):
    program = parse_program(text)
    assert len(program.patterns) == 1
    return program.patterns[0]


def first_leaf(pattern):
    return pattern.body.alts[0].parts[0]


def test_elementary_pattern_shape():
    p = only_pattern("pattern open_window as {:window, id, :open, location}")
    assert p.name == "open_window"
    leaf = first_leaf(p)
    assert isinstance(leaf, ElemPattern) and not leaf.negated
    sel = leaf.base
    assert isinstance(sel, Selector)
    assert sel.type_tag == Symbol("window")
    assert sel.terms == (Var("id"), Const(Symbol("open")), Var("location"))


def test_empty_body_is_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_program("pattern p as")
    assert "selector" in str(err.value)


def test_fig11_structure():
    program = parse_program(corpus_text("fig11"))
    occupied = program.patterns[1]
    assert len(occupied.body.alts) == 1
    assert len(occupied.body.alts[0].parts) == 3
    assert occupied.options.seq is True
    assert occupied.options.interval == Duration(60, "secs")
    assert occupied.options.interval.ms == 60_000


def test_and_binds_tighter_than_or():
    p = only_pattern("pattern p as {:a, x} and {:b, x} or {:c, x}")
    assert isinstance(p.body, OrGroup)
    assert len(p.body.alts) == 2
    assert len(p.body.alts[0].parts) == 2
    assert len(p.body.alts[1].parts) == 1


def test_duplicate_pattern_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("pattern p as {:a, x}\npattern p as {:b, y}")
    assert err.value.code == "DuplicatePattern"


def test_unknown_option_lists_valid_ones():
    with pytest.raises(ParseError) as err:
        parse_program("pattern p as {:a, x}, options: [sequential: true]")
    message = str(err.value)
    for key in ("seq", "interval", "last", "debounce"):
        assert key in message


def test_a_repeated_option_keeps_its_last_value():
    p = only_pattern("pattern p as {:a, x}, options: "
                     "[seq: true, interval: {1, :secs}, seq: false, interval: {2, :mins}]")
    assert p.options == Options(seq=False, interval=Duration(2, "mins"))


def test_unknown_time_unit():
    with pytest.raises(ParseError):
        parse_program("pattern p as {:a, x}[window: {5, :fortnights}]")


def test_duplicate_operator_kind_rejected():
    with pytest.raises(ParseError):
        parse_program("pattern p as {:a, x}[count: 2, count: 3]")


def test_bind_requires_fold():
    with pytest.raises(ParseError):
        parse_program("pattern p as {:a, x}[count: 2] |> bind(total)")


def test_named_reference_with_refinements():
    p = parse_program(corpus_text("fig11")).patterns[1]
    ref = p.body.alts[0].parts[2].base
    assert isinstance(ref, NamedRef)
    assert ref.name == "motion_sensor"
    assert len(ref.refinements) == 2


def test_operators_parse_in_one_bracket_group():
    p = only_pattern("pattern p as {:a, x}[count: 3, window: {60, :mins}]")
    ops = first_leaf(p).operators
    assert ops == (Count(3), Window(Duration(60, "mins")))


def test_error_positions_are_reported():
    try:
        parse_program("pattern p as\n  {:a, x} when {")
    except ParseError as err:
        assert err.line == 2
        assert err.column > 0
    else:
        pytest.fail("expected ParseError")


def test_nesting_limit():
    guard = "(" * 100 + "x > 1" + ")" * 100
    parse_program(f"pattern p as {{:a, x}} when {guard}")
    parse_program("pattern p as {:a, x} when " + "not " * 99 + "(x > 1)")
    for guard in ("(" * 101 + "x > 1" + ")" * 101, "not " * 101 + "x > 1"):
        with pytest.raises(ParseError) as err:
            parse_program(f"pattern p as {{:a, x}} when {guard}")
        assert err.value.code == "NestingTooDeep"


def test_react_to_both_forms():
    program = parse_program(
        "pattern p as {:a, x}\nreact_to p, with: handle\nreact_to p, with: emit(out)"
    )
    assert [(b.label, b.emit_form) for b in program.bindings] == [
        ("handle", False),
        ("out", True),
    ]


def test_corpus_parses():
    for path in CORPUS_FILES:
        parse_program(path.read_text(encoding="utf-8"))


EXPECTED_PRODUCTIONS = [
    "program", "pattern-definition", "pattern", "elem-pattern",
    "selector", "selector-ref", "attribute", "logic-var", "logic-var-marked",
    "value-symbol", "guard", "inline-guard", "alias-op", "refinement-distinct",
    "operator-window", "operator-debounce", "operator-every", "operator-count",
    "transformer-fold", "transformer-bind",
    "option-seq", "option-interval", "option-last", "option-debounce",
    "time", "expression", "react-to",
]


REFINEMENTS = {InlineGuard: "inline-guard", AliasOp: "alias-op",
               DistinctMark: "refinement-distinct"}


def productions_of(program):
    """The names of the grammar productions that a parsed program holds."""
    found = {"program"}
    if program.bindings:
        found.add("react-to")
    for p in program.patterns:
        found |= {"pattern-definition", "pattern"}
        if p.guard is not None:
            found |= {"guard", "expression"}
        for key in ("seq", "interval", "last", "debounce"):
            if getattr(p.options, key):
                found.add(f"option-{key}")
        if p.options.interval or p.options.debounce:
            found.add("time")
        for leaf in body_leaves(p.body):
            found.add("elem-pattern")
            if isinstance(leaf.base, NamedRef):
                found.add("selector-ref")
                for r in leaf.base.refinements:
                    found.add(REFINEMENTS[type(r)])
                    if isinstance(r, InlineGuard):
                        found.add("expression")
            else:
                found.add("selector")
                for term in leaf.base.terms:
                    found.add("attribute")
                    if isinstance(term, Var):
                        found.add("logic-var")
                    elif not isinstance(term, Const):
                        found.add("logic-var-marked")
                    elif isinstance(term.value, Symbol):
                        found.add("value-symbol")
            for op in leaf.operators:
                found.add(f"operator-{type(op).__name__.lower()}")
                if isinstance(op, (Window, Debounce)):
                    found.add("time")
            for t in leaf.transformers:
                found.add(f"transformer-{type(t).__name__.lower()}")
                if isinstance(t, Fold):
                    found.add("expression")
    return found


def test_grammar_production_coverage():
    # every production must appear at least once over the corpus + fixtures
    sources = [p.read_text(encoding="utf-8") for p in CORPUS_FILES]
    sources += [
        fixture_path(f"scenario{i}.sprw").read_text(encoding="utf-8") for i in SCENARIOS
    ]
    found = set().union(*[productions_of(parse_program(text)) for text in sources])
    missing = [key for key in EXPECTED_PRODUCTIONS if key not in found]
    assert not missing, f"productions never found: {missing}"


VALUE_KINDS = ["FLOAT", "INT", "STRING", "SYMBOL", "false", "true"]
OPERATOR_KEYS = ["count", "debounce", "every", "window"]
VALID_OPERATORS = "(valid operators: window, debounce, every, count)"
OPTION_KEYS = ["debounce", "interval", "last", "seq"]
VALID_OPTIONS = "(valid options: seq, interval, last, debounce)"

# source, message, line, column, code, expected
ERROR_SNAPSHOTS = [
    # unexpected characters past column 1, on later lines and after comments
    ("pattern p as {:a, x}\npattern q as {:b, y} when y $ 2",
     "unexpected character '$'", 2, 29, "SyntaxError", []),
    ("pattern p as {:a, x} # note ; fine\npattern q as {:b, y} ; ",
     "unexpected character ';'", 2, 22, "SyntaxError", []),
    ("# only a comment\n  ?", "unexpected character '?'", 2, 3, "SyntaxError", []),
    ("pattern p as {:a, x}\n\t\tpattern q as {:a, 1.}",
     "unexpected character '.'", 2, 22, "SyntaxError", []),
    ("pattern p as {:a, x}\r\npattern q as {:a, y} when y ~ 1",
     "unexpected character '~'", 2, 29, "SyntaxError", []),
    ("pattern p as {:a, x}\xa0", "unexpected character '\\xa0'", 1, 21, "SyntaxError", []),
    # an unterminated string is an unexpected quote
    ('pattern p as {:a, x}\npattern q as {:b, "open}',
     "unexpected character '\"'", 2, 19, "SyntaxError", []),
    ('pattern p as {:a, "a\\"b}', "unexpected character '\"'", 1, 19, "SyntaxError", []),
    # nesting limit
    ("pattern p as {:a, x} when " + "(" * 101 + "x" + ")" * 101,
     "expression nested more than 100 deep", 1, 128, "NestingTooDeep", []),
    ("pattern p as {:a, x}\n  when\n" + "(" * 101 + "x" + ")" * 101,
     "expression nested more than 100 deep", 3, 102, "NestingTooDeep", []),
    ("pattern p as {:a, x} when " + "not " * 101 + "x",
     "expression nested more than 100 deep", 1, 431, "NestingTooDeep", []),
    # a duplicate is reported at the token after its definition
    ("pattern p as {:a, x}\n\npattern p as {:b, y}",
     "duplicate pattern 'p'", 3, 21, "DuplicatePattern", []),
    ("pattern p as {:a, x}\n\npattern p as {:b, y} when y > 1\n# trailing\n",
     "duplicate pattern 'p'", 5, 1, "DuplicatePattern", []),
    # end of input inside a selector, and elsewhere
    ("pattern p as {:a, x", "expected '}', got 'end-of-input'", 1, 20, "SyntaxError", ["}"]),
    ("pattern p as {:a, x # open\n", "expected '}', got 'end-of-input'", 2, 1, "SyntaxError", ["}"]),
    ("pattern p as {:a,", "expected value, got 'end-of-input'", 1, 18, "SyntaxError", VALUE_KINDS),
    ("pattern p as {", "expected 'SYMBOL', got 'end-of-input'", 1, 15, "SyntaxError", ["SYMBOL"]),
    ("pattern p as", "expected selector, got 'end-of-input'", 1, 13, "SyntaxError", ["IDENT", "{"]),
    ("pattern", "expected 'IDENT', got 'end-of-input'", 1, 8, "SyntaxError", ["IDENT"]),
    ("pattern p as {:a, x}\npattern q as {:b, y} when y > ",
     "expected value, got 'end-of-input'", 2, 31, "SyntaxError", VALUE_KINDS),
    ("pattern p as {:a, x}\n# c\n\tpattern q as {:b, y} when (y > 1",
     "expected ')', got 'end-of-input'", 3, 34, "SyntaxError", [")"]),
    # checks on values after they are lexed
    ("pattern p as {:a, x}[count: 0]", "count requires a positive count", 1, 29, "SyntaxError", []),
    ("pattern p as {:a, x} when x > " + "9" * 400 + ".0",
     "float literal too large", 1, 31, "SyntaxError", []),
    ("pattern p as {:a, -" + "9" * 400 + ".0}", "float literal too large", 1, 19, "SyntaxError", []),
    ("pattern p as {:a, x}[window: {0, :secs}]", "duration must be positive", 1, 31, "SyntaxError", []),
    # integers past Python's int-string conversion limit (4,300 digits)
    ("pattern p as {:a, x} when x > " + "9" * 5000,
     "integer literal too large", 1, 31, "SyntaxError", []),
    ("pattern p as {:a, -" + "9" * 5000 + "}", "integer literal too large", 1, 20, "SyntaxError", []),
    ("pattern p as {:a, x}[every: " + "9" * 5000 + "]",
     "integer literal too large", 1, 29, "SyntaxError", []),
    ("pattern p as {:a, x}[window: {" + "9" * 5000 + ", :secs}]",
     "integer literal too large", 1, 31, "SyntaxError", []),
    ("pattern p as {:a, x}[every: 1, every: 2]", "duplicate operator 'every'", 1, 41, "SyntaxError", []),
    ("pattern p as {:a, x}, options: [seq: maybe]",
     "expected boolean, got 'maybe'", 1, 38, "SyntaxError", ["false", "true"]),
    ("react_to p with: emit(x)", "expected ',', got 'with'", 1, 12, "SyntaxError", [","]),
    # bracketed comma lists and operator or option names: a misspelt name, a
    # trailing comma, an empty list, a list left open, and a bad entry
    ("pattern p as {:a, x}[windw: {1, :secs}]",
     "expected operator name, got 'windw' " + VALID_OPERATORS, 1, 22, "SyntaxError", OPERATOR_KEYS),
    ("pattern p as {:a, x}[count: 2,]",
     "expected operator name, got ']' " + VALID_OPERATORS, 1, 31, "SyntaxError", OPERATOR_KEYS),
    ("pattern p as {:a, x}, options: [seq: true,]",
     "unknown option ']' " + VALID_OPTIONS, 1, 43, "SyntaxError", OPTION_KEYS),
    ("pattern p as q{x = 1,}", "expected 'IDENT', got '}'", 1, 22, "SyntaxError", ["IDENT"]),
    ("pattern p as {:a, v} |> fold(0, fn({_, v,}, acc) -> acc end)",
     "expected 'IDENT', got '}'", 1, 42, "SyntaxError", ["IDENT"]),
    ("pattern p as {:a, x}[]",
     "expected operator name, got ']' " + VALID_OPERATORS, 1, 22, "SyntaxError", OPERATOR_KEYS),
    ("pattern p as {:a, x}, options: []",
     "unknown option ']' " + VALID_OPTIONS, 1, 33, "SyntaxError", OPTION_KEYS),
    ("pattern p as q{}", "expected 'IDENT', got '}'", 1, 16, "SyntaxError", ["IDENT"]),
    ("pattern p as {:a, v} |> fold(0, fn({}, acc) -> acc end)",
     "expected 'IDENT', got '}'", 1, 37, "SyntaxError", ["IDENT"]),
    ("pattern p as {:a, x}[count: 2", "expected ']', got 'end-of-input'", 1, 30, "SyntaxError", ["]"]),
    ("pattern p as q{x}", "expected refinement operator after 'x'", 1, 17, "SyntaxError", ["=", "~>"]),
    ("pattern p as {:a, x}, options: [interval: 3]",
     "expected '{', got '3'", 1, 43, "SyntaxError", ["{"]),
]


@pytest.mark.parametrize("source,message,line,column,code,expected", ERROR_SNAPSHOTS)
def test_parse_error_snapshot(source, message, line, column, code, expected):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert str(err.value) == f"{line}:{column}: {message}"
    assert (err.value.line, err.value.column, err.value.code) == (line, column, code)
    assert err.value.expected == frozenset(expected)


@pytest.mark.parametrize("text,value", [
    ('"a\\qb\\n"', "aqb\n"),
    ('"\\t\\"\\\\"', '\t"\\'),
    ('"plain"', "plain"),
    ("-7", -7),
    (":sym", Symbol("sym")),
])
def test_parse_value(text, value):
    assert first_leaf(only_pattern(f"pattern p as {{:a, {text}}}")).base.terms == (Const(value),)
