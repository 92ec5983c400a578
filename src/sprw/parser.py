"""Recursive-descent parser for the pattern language.

``parse_program`` turns a ``.sprw`` source string into a :class:`Program`.
Named references are recorded but not expanded here (see :mod:`sprw.expand`).
"""

from __future__ import annotations

import re
from math import inf

from .errors import ParseError
from .nodes import (
    AliasOp,
    AndGroup,
    Bind,
    BinOp,
    Const,
    Count,
    Debounce,
    DistinctMark,
    ElemPattern,
    Every,
    Fold,
    FoldFn,
    InlineGuard,
    Lit,
    MayDistinct,
    MustDistinct,
    NamedRef,
    NotOp,
    Options,
    OrGroup,
    PatternAst,
    Program,
    ReactionBinding,
    Selector,
    Var,
    VarRef,
    Window,
)
from .values import Duration, Symbol, TIME_UNITS

# --------------------------------------------------------------------------
# lexer

# Spaces, tabs, carriage returns and newlines separate tokens; any other
# character that starts no token is `bad`.
_TOKEN_RE = re.compile(
    r"""
      (?P<comment>\#[^\n]*)
    | (?P<FLOAT>\d+\.\d+)
    | (?P<INT>\d+)
    | (?P<SYMBOL>:[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STRING>"(?:\\.|[^"\\\n])*")
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\|>|~>|->|==|!=|<=|>=|[{}()\[\],:=<>+\-*/@!])
    | (?P<bad>[^ \t\r\n])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "pattern", "as", "and", "or", "not", "when", "options",
    "true", "false", "fold", "bind", "fn", "end", "react_to", "with", "emit",
}


def tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """The kind, text and source offset of every token, as three lists.

    A kind is IDENT SYMBOL INT FLOAT STRING, the keyword or operator itself,
    or EOF.  The lists hold only strings and ints, which the garbage collector
    does not track, so a long program's tokens add nothing to its passes.  Two
    EOF entries end them, so the parser may look one token past the end."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    add_kind, add_text, add_start = kinds.append, texts.append, starts.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "op" or kind == "IDENT" and lexeme in _KEYWORDS:
            kind = lexeme
        elif kind == "comment":
            continue
        elif kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", *_position(text, m.start()))
        add_kind(kind)
        add_text(lexeme)
        add_start(m.start())
    kinds += ("EOF", "EOF")
    texts += ("", "")
    starts += (len(text), len(text))
    return kinds, texts, starts


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` in ``text``; the column counts
    from the start of the line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# parser

_OPTION_KEYS = ("seq", "interval", "last", "debounce")
_OPERATOR_KEYS = ("window", "debounce", "every", "count")
# deepest expression nesting (parentheses and prefix `not`) accepted; the
# recursive descent spends about seven frames per level
MAX_NESTING = 100


class Parser:
    def __init__(self, text: str):
        self.source = text
        self.kinds, self.texts, self.starts = tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and prefix `not`s

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> str:
        """Consume the current token and return its text (for a keyword or
        an operator, also its kind)."""
        pos = self.pos
        if self.kinds[pos] != "EOF":
            self.pos = pos + 1
        return self.texts[pos]

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def expect(self, kind: str) -> str:
        """Consume a token of ``kind`` and return its text."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind!r}, got {self.texts[pos] or 'end-of-input'!r}", {kind})
        self.pos = pos + 1  # no production expects EOF
        return self.texts[pos]

    def error(self, message: str, pos: int, expected=(), code: str = "SyntaxError") -> ParseError:
        """A ParseError positioned at token ``pos``."""
        return ParseError(message, *_position(self.source, self.starts[pos]), expected, code)

    def nest(self, parse):
        """Run a recursive production one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise self.error(
                f"expression nested more than {MAX_NESTING} deep", self.pos, code="NestingTooDeep"
            )
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def fail(self, message: str, expected=()) -> None:
        raise self.error(message, self.pos, expected)

    # -- program -----------------------------------------------------------

    def parse_program(self) -> Program:
        patterns: list[PatternAst] = []
        bindings: list[ReactionBinding] = []
        seen: set[str] = set()
        while not self.at("EOF"):
            if self.at("pattern"):
                p = self.parse_pattern_definition()
                if p.name in seen:
                    raise self.error(
                        f"duplicate pattern {p.name!r}", self.pos, code="DuplicatePattern"
                    )
                seen.add(p.name)
                patterns.append(p)
            elif self.at("react_to"):
                bindings.append(self.parse_react_to())
            else:
                self.fail(
                    f"expected declaration, got {self.texts[self.pos]!r}",
                    {"pattern", "react_to"},
                )
        return Program(tuple(patterns), tuple(bindings))

    def parse_react_to(self) -> ReactionBinding:
        self.expect("react_to")
        name = self.expect("IDENT")
        self.expect(",")
        self.expect("with")
        self.expect(":")
        if self.at("emit"):
            self.advance()
            self.expect("(")
            label = self.expect("IDENT")
            self.expect(")")
            return ReactionBinding(name, label, emit_form=True)
        label = self.expect("IDENT")
        return ReactionBinding(name, label)

    # -- pattern definitions -------------------------------------------------

    def parse_pattern_definition(self) -> PatternAst:
        self.expect("pattern")
        name = self.expect("IDENT")
        self.expect("as")
        body = self.parse_body()
        guard = None
        if self.at("when"):
            self.advance()
            guard = self.parse_expr()
        options = Options()
        if self.at(",") and self.kinds[self.pos + 1] == "options":
            self.advance()
            self.expect("options")
            self.expect(":")
            options = self.parse_options()
        return PatternAst(name, body, guard, options)

    def parse_body(self) -> OrGroup:
        # `and` binds tighter than `or`; both chains are left-to-right.
        alts: list[AndGroup] = []
        parts: list[ElemPattern] = [self.parse_elem_pattern()]
        while self.at("and", "or"):
            op = self.advance()
            nxt = self.parse_elem_pattern()
            if op == "and":
                parts.append(nxt)
            else:
                alts.append(AndGroup(tuple(parts)))
                parts = [nxt]
        alts.append(AndGroup(tuple(parts)))
        return OrGroup(tuple(alts))

    def parse_elem_pattern(self) -> ElemPattern:
        negated = False
        if self.at("not"):
            self.advance()
            negated = True
        base = self.parse_selector_or_ref()
        operators = []
        seen_kinds: set[type] = set()
        while self.at("["):
            for op in self.parse_operator_group():
                if type(op) in seen_kinds:
                    self.fail(f"duplicate operator {type(op).__name__.lower()!r}")
                seen_kinds.add(type(op))
                operators.append(op)
        transformers = []
        saw_fold = False
        while self.at("|>"):
            self.advance()
            t = self.parse_transformer()
            if isinstance(t, Fold):
                saw_fold = True
            elif not saw_fold:
                self.fail("bind must be preceded by a fold")
            transformers.append(t)
        return ElemPattern(negated, base, tuple(operators), tuple(transformers))

    def parse_selector_or_ref(self):
        if self.at("{"):
            return self.parse_selector()
        if self.at("IDENT"):
            name = self.advance()
            refinements = []
            while self.at("{"):
                refinements.extend(self.parse_refinement_group())
            return NamedRef(name, tuple(refinements))
        self.fail(f"expected selector, got {self.texts[self.pos] or 'end-of-input'!r}",
                  {"{", "IDENT"})

    def parse_selector(self) -> Selector:
        self.expect("{")
        tag = self.expect("SYMBOL")
        terms = []
        while self.at(","):
            self.advance()
            terms.append(self.parse_attribute())
        self.expect("}")
        return Selector(Symbol(tag[1:]), tuple(terms))

    def parse_attribute(self):
        kind = self.kinds[self.pos]
        if kind in ("@", "!"):
            marker = self.advance()
            name = self.expect("IDENT")
            return MustDistinct(name) if marker == "!" else MayDistinct(name)
        if kind == "IDENT":
            return Var(self.advance())
        return Const(self.parse_value())

    def parse_value(self):
        kind = self.kinds[self.pos]
        if kind == "SYMBOL":
            return Symbol(self.advance()[1:])
        if kind == "INT":
            return self.parse_int()
        if kind == "FLOAT":
            return self.parse_float(self.pos)
        if kind == "STRING":
            return _unquote(self.advance())
        if kind in ("true", "false"):
            self.advance()
            return kind == "true"
        if kind == "-" and self.kinds[self.pos + 1] in ("INT", "FLOAT"):
            start = self.pos
            self.advance()
            if self.kinds[self.pos] == "INT":
                return -self.parse_int()
            return -self.parse_float(start)
        self.fail(f"expected value, got {self.texts[self.pos] or 'end-of-input'!r}",
                  {"SYMBOL", "INT", "FLOAT", "STRING", "true", "false"})

    def parse_int(self) -> int:
        """Consume an INT token, reporting one too long for ``int`` at it."""
        pos = self.pos
        text = self.expect("INT")
        try:
            return int(text)
        except ValueError:
            raise self.error("integer literal too large", pos) from None

    def parse_float(self, start: int) -> float:
        """Consume a FLOAT token; one too large for a double is reported at
        token ``start``, as ``inf`` would print as a variable."""
        value = float(self.advance())
        if value == inf:
            raise self.error("float literal too large", start)
        return value

    def parse_refinement_group(self):
        self.expect("{")
        out = [self.parse_refinement()]
        while self.at(","):
            self.advance()
            out.append(self.parse_refinement())
        self.expect("}")
        return out

    def parse_refinement(self):
        if self.at("@", "!"):
            marker = self.advance()
            name = self.expect("IDENT")
            return DistinctMark(marker, name)
        name = self.expect("IDENT")
        if self.at("~>"):
            self.advance()
            dst = self.expect("IDENT")
            return AliasOp(name, dst)
        if self.at("="):
            self.advance()
            return InlineGuard(name, self.parse_expr())
        self.fail(f"expected refinement operator after {name!r}", {"=", "~>"})

    # -- operators, transformers, options ------------------------------------

    def parse_operator_group(self):
        self.expect("[")
        ops = [self.parse_operator()]
        while self.at(","):
            self.advance()
            ops.append(self.parse_operator())
        self.expect("]")
        return ops

    def parse_operator(self):
        key = self.texts[self.pos]
        if self.kinds[self.pos] != "IDENT" or key not in _OPERATOR_KEYS:
            self.fail(
                f"expected operator name, got {key!r} "
                f"(valid operators: {', '.join(_OPERATOR_KEYS)})",
                set(_OPERATOR_KEYS),
            )
        self.advance()
        self.expect(":")
        if key in ("window", "debounce"):
            dur = self.parse_time()
            return Window(dur) if key == "window" else Debounce(dur)
        n_pos = self.pos
        n = self.parse_int()
        if n <= 0:
            raise self.error(f"{key} requires a positive count", n_pos)
        return Every(n) if key == "every" else Count(n)

    def parse_time(self) -> Duration:
        self.expect("{")
        amount_pos = self.pos
        amount = self.parse_int()
        if amount <= 0:
            raise self.error("duration must be positive", amount_pos)
        self.expect(",")
        unit_pos = self.pos
        unit = self.expect("SYMBOL")[1:]
        if unit not in TIME_UNITS:
            raise self.error(
                f"unknown time unit :{unit} (expected one of {', '.join(':' + u for u in TIME_UNITS)})",
                unit_pos,
            )
        self.expect("}")
        return Duration(amount, unit)

    def parse_transformer(self):
        kind = self.kinds[self.pos]
        if kind == "fold":
            self.advance()
            self.expect("(")
            init = self.parse_expr()
            self.expect(",")
            fn = self.parse_fold_fn()
            self.expect(")")
            return Fold(init, fn)
        if kind == "bind":
            self.advance()
            self.expect("(")
            name = self.expect("IDENT")
            self.expect(")")
            return Bind(name)
        self.fail(f"expected transformer, got {self.texts[self.pos]!r}", {"fold", "bind"})

    def parse_fold_fn(self) -> FoldFn:
        self.expect("fn")
        self.expect("(")
        self.expect("{")
        params: list[str | None] = [self.parse_fold_param()]
        while self.at(","):
            self.advance()
            params.append(self.parse_fold_param())
        self.expect("}")
        self.expect(",")
        acc = self.expect("IDENT")
        self.expect(")")
        self.expect("->")
        body = self.parse_expr()
        self.expect("end")
        return FoldFn(tuple(params), acc, body)

    def parse_fold_param(self) -> str | None:
        name = self.expect("IDENT")
        return None if name == "_" else name

    def parse_options(self) -> Options:
        self.expect("[")
        seq = False
        last = False
        interval = None
        debounce = None
        while True:
            key = self.texts[self.pos]
            if self.kinds[self.pos] != "IDENT" or key not in _OPTION_KEYS:
                self.fail(
                    f"unknown option {key!r} "
                    f"(valid options: {', '.join(_OPTION_KEYS)})",
                    set(_OPTION_KEYS),
                )
            self.advance()
            self.expect(":")
            if key == "seq":
                seq = self.parse_bool()
            elif key == "last":
                last = self.parse_bool()
            elif key == "interval":
                interval = self.parse_time()
            else:
                debounce = self.parse_time()
            if self.at(","):
                self.advance()
                continue
            break
        self.expect("]")
        return Options(seq=seq, interval=interval, last=last, debounce=debounce)

    def parse_bool(self) -> bool:
        if self.at("true", "false"):
            return self.advance() == "true"
        self.fail(f"expected boolean, got {self.texts[self.pos]!r}", {"true", "false"})

    # -- expressions ---------------------------------------------------------
    # or < and < not < comparison < additive < multiplicative < primary

    def parse_expr(self):
        return self.parse_or_expr()

    def parse_or_expr(self):
        left = self.parse_and_expr()
        while self.at("or"):
            self.advance()
            left = BinOp("or", left, self.parse_and_expr())
        return left

    def parse_and_expr(self):
        left = self.parse_not_expr()
        while self.at("and"):
            self.advance()
            left = BinOp("and", left, self.parse_not_expr())
        return left

    def parse_not_expr(self):
        if self.at("not"):
            self.advance()
            return NotOp(self.nest(self.parse_not_expr))
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_additive()
        while self.at("==", "!=", "<", "<=", ">", ">="):
            op = self.advance()
            left = BinOp(op, left, self.parse_additive())
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.at("+", "-"):
            op = self.advance()
            left = BinOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self):
        left = self.parse_primary()
        while self.at("*", "/"):
            op = self.advance()
            left = BinOp(op, left, self.parse_primary())
        return left

    def parse_primary(self):
        kind = self.kinds[self.pos]
        if kind == "(":
            self.advance()
            inner = self.nest(self.parse_or_expr)
            self.expect(")")
            return inner
        if kind == "IDENT":
            return VarRef(self.advance())
        return Lit(self.parse_value())


def parse_program(text: str) -> Program:
    """Parse a full ``.sprw`` source into a :class:`Program`."""
    return Parser(text).parse_program()
