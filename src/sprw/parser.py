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

# One alternative per token class and no groups, so ``findall`` returns the
# lexemes themselves.  Alternatives are tried in turn, so the commonest come
# first; where two can start at one character, the longer comes first (a
# symbol before ':', a two-character operator before its first character).
# Spaces, tabs, carriage returns and newlines separate tokens; any other
# character that starts no token is a lexeme of its own, reported as
# unexpected.
_LEXEME_RE = re.compile(
    r"""
      [A-Za-z_][A-Za-z0-9_]*
    | :[A-Za-z_][A-Za-z0-9_]*
    | \|>|~>|->|==|!=|<=|>=|[{}()\[\],:=<>+\-*/@!]
    | \d+(?:\.\d+)?
    | \#[^\n]*
    | "(?:\\.|[^"\\\n])*"
    | [^ \t\r\n]
    """,
    re.VERBOSE,
)

# a keyword or an operator is its own kind
_FIXED_KINDS = {lexeme: lexeme for lexeme in (
    "pattern", "as", "and", "or", "not", "when", "options", "true", "false",
    "fold", "bind", "fn", "end", "react_to", "with", "emit",
    "|>", "~>", "->", "==", "!=", "<=", ">=", *"{}()[],:=<>+-*/@!",
)}
# an identifier, a symbol or a comment is known by its first character
_LEAD_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT"),
    ":": "SYMBOL",  # a lone ':' is an operator
    "#": "comment",
}


def _other_kind(lexeme: str) -> str:
    """The kind of a number, a string or an unexpected character."""
    if lexeme[0].isdecimal():  # as ``\d``, which takes any decimal digit
        return "FLOAT" if "." in lexeme else "INT"
    if lexeme[0] == '"' and len(lexeme) > 1:  # an unclosed quote lexes alone
        return "STRING"
    return "bad"


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kind and text of every token, as two lists.

    A kind is IDENT SYMBOL INT FLOAT STRING, the keyword or operator itself,
    or EOF.  The lists hold only strings, which the garbage collector does
    not track, so a long program's tokens add nothing to its passes.  Two EOF
    entries end them, so the parser may look one token past the end.  A
    token's source offset is found only for an error (:func:`_token_offset`)."""
    texts = _LEXEME_RE.findall(text)
    kinds = [_FIXED_KINDS.get(lexeme) or _LEAD_KINDS.get(lexeme[0]) or _other_kind(lexeme)
             for lexeme in texts]
    if "comment" in kinds:
        texts = [lexeme for lexeme, kind in zip(texts, kinds) if kind != "comment"]
        kinds = [kind for kind in kinds if kind != "comment"]
    if "bad" in kinds:
        pos = kinds.index("bad")
        raise ParseError(f"unexpected character {texts[pos]!r}",
                         *_position(text, _token_offset(text, pos)))
    kinds += ("EOF", "EOF")
    texts += ("", "")
    return kinds, texts


def _token_offset(text: str, pos: int) -> int:
    """The source offset of token ``pos`` (comments are not tokens);
    past the last token, the end of ``text``."""
    for m in _LEXEME_RE.finditer(text):
        if m.group()[0] != "#":
            if pos == 0:
                return m.start()
            pos -= 1
    return len(text)


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` in ``text``; the column counts
    from the start of the line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _unquote(raw: str) -> str:
    """A STRING token's value: its body with each escape pair the lexer reads
    replaced, ``\\n`` by a newline, ``\\t`` by a tab and ``\\x`` by ``x``."""
    return re.sub(r"\\(.)", lambda m: {"n": "\n", "t": "\t"}.get(m[1], m[1]), raw[1:-1])


# --------------------------------------------------------------------------
# parser

_OPTION_KEYS = ("seq", "interval", "last", "debounce")
_OPERATOR_KEYS = ("window", "debounce", "every", "count")
# deepest expression nesting (parentheses and prefix `not`) accepted; the
# recursive descent spends about three frames per level
MAX_NESTING = 100
# how tightly each binary operator binds: or < and < (prefix not) <
# comparison < additive < multiplicative; each associates to the left
_BINARY_PREC = {
    "or": 1, "and": 2, "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6,
}
_NOT_PREC = 3  # `not` takes a comparison or another `not`


class Parser:
    def __init__(self, text: str):
        self.source = text
        self.kinds, self.texts = tokenize(text)
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

    def expect(self, kind: str) -> str:
        """Consume a token of ``kind`` and return its text."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind!r}, got {self.texts[pos] or 'end-of-input'!r}", {kind})
        self.pos = pos + 1  # EOF is expected only at the end, before the second EOF
        return self.texts[pos]

    def items(self, open: str, parse_item, close: str) -> list:
        """``open item ("," item)* close``, each item read by ``parse_item``."""
        self.expect(open)
        out = [parse_item()]
        while self.kinds[self.pos] == ",":
            self.advance()
            out.append(parse_item())
        self.expect(close)
        return out

    def key(self, keys: tuple[str, ...], message: str) -> str:
        """Consume one of ``keys`` and the ':' after it.  Any other token is
        an error, ``message`` formatted with its text and the valid keys."""
        key = self.texts[self.pos]
        if self.kinds[self.pos] != "IDENT" or key not in keys:
            self.fail(message.format(key, ", ".join(keys)), set(keys))
        self.advance()
        self.expect(":")
        return key

    def error(self, message: str, pos: int, expected=(), code: str = "SyntaxError") -> ParseError:
        """A ParseError positioned at token ``pos``."""
        offset = _token_offset(self.source, pos)
        return ParseError(message, *_position(self.source, offset), expected, code)

    def nest(self, min_prec: int):
        """``parse_expr(min_prec)`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise self.error(
                f"expression nested more than {MAX_NESTING} deep", self.pos, code="NestingTooDeep"
            )
        self.depth += 1
        node = self.parse_expr(min_prec)
        self.depth -= 1
        return node

    def fail(self, message: str, expected=()) -> None:
        raise self.error(message, self.pos, expected)

    # -- program -----------------------------------------------------------

    def parse_program(self) -> Program:
        patterns: list[PatternAst] = []
        bindings: list[ReactionBinding] = []
        seen: set[str] = set()
        while self.kinds[self.pos] != "EOF":
            if self.kinds[self.pos] == "pattern":
                p = self.parse_pattern_definition()
                if p.name in seen:
                    raise self.error(
                        f"duplicate pattern {p.name!r}", self.pos, code="DuplicatePattern"
                    )
                seen.add(p.name)
                patterns.append(p)
            elif self.kinds[self.pos] == "react_to":
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
        if self.kinds[self.pos] == "emit":
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
        if self.kinds[self.pos] == "when":
            self.advance()
            guard = self.parse_expr()
        if self.kinds[self.pos] == "," and self.kinds[self.pos + 1] == "options":
            self.advance()
            self.expect("options")
            self.expect(":")
            return PatternAst(name, body, guard, self.parse_options())
        return PatternAst(name, body, guard)

    def parse_body(self) -> OrGroup:
        # `and` binds tighter than `or`; both chains are left-to-right.
        alts: list[AndGroup] = []
        parts: list[ElemPattern] = [self.parse_elem_pattern()]
        while self.kinds[self.pos] in ("and", "or"):
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
        if self.kinds[self.pos] == "not":
            self.advance()
            negated = True
        base = self.parse_selector_or_ref()
        operators = self.parse_operators() if self.kinds[self.pos] == "[" else ()
        transformers = self.parse_transformers() if self.kinds[self.pos] == "|>" else ()
        return ElemPattern(negated, base, operators, transformers)

    def parse_operators(self) -> tuple:
        operators = []
        seen_kinds: set[type] = set()
        while self.kinds[self.pos] == "[":
            for op in self.items("[", self.parse_operator, "]"):
                if type(op) in seen_kinds:
                    self.fail(f"duplicate operator {type(op).__name__.lower()!r}")
                seen_kinds.add(type(op))
                operators.append(op)
        return tuple(operators)

    def parse_transformers(self) -> tuple:
        transformers = []
        saw_fold = False
        while self.kinds[self.pos] == "|>":
            self.advance()
            t = self.parse_transformer()
            if isinstance(t, Fold):
                saw_fold = True
            elif not saw_fold:
                self.fail("bind must be preceded by a fold")
            transformers.append(t)
        return tuple(transformers)

    def parse_selector_or_ref(self):
        kind = self.kinds[self.pos]
        if kind == "{":
            return self.parse_selector()
        if kind == "IDENT":
            name = self.advance()
            refinements = []
            while self.kinds[self.pos] == "{":
                refinements.extend(self.items("{", self.parse_refinement, "}"))
            return NamedRef(name, tuple(refinements))
        self.fail(f"expected selector, got {self.texts[self.pos] or 'end-of-input'!r}",
                  {"{", "IDENT"})

    def parse_selector(self) -> Selector:
        self.expect("{")
        tag = self.expect("SYMBOL")
        terms = []
        while self.kinds[self.pos] == ",":
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

    def parse_refinement(self):
        if self.kinds[self.pos] in ("@", "!"):
            marker = self.advance()
            name = self.expect("IDENT")
            return DistinctMark(marker, name)
        name = self.expect("IDENT")
        kind = self.kinds[self.pos]
        if kind == "~>":
            self.advance()
            dst = self.expect("IDENT")
            return AliasOp(name, dst)
        if kind == "=":
            self.advance()
            return InlineGuard(name, self.parse_expr())
        self.fail(f"expected refinement operator after {name!r}", {"=", "~>"})

    # -- operators, transformers, options ------------------------------------

    def parse_operator(self):
        key = self.key(_OPERATOR_KEYS, "expected operator name, got {!r} (valid operators: {})")
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
        params = self.items("{", self.parse_fold_param, "}")
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
        # a repeated key keeps its last value
        return Options(**dict(self.items("[", self.parse_option, "]")))

    def parse_option(self) -> tuple:
        key = self.key(_OPTION_KEYS, "unknown option {!r} (valid options: {})")
        return key, self.parse_bool() if key in ("seq", "last") else self.parse_time()

    def parse_bool(self) -> bool:
        if self.kinds[self.pos] in ("true", "false"):
            return self.advance() == "true"
        self.fail(f"expected boolean, got {self.texts[self.pos]!r}", {"true", "false"})

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec: int = 1):
        """An expression whose binary operators bind at least as tightly as
        ``min_prec`` (precedence climbing; see _BINARY_PREC)."""
        kind = self.kinds[self.pos]
        if kind == "not" and min_prec <= _NOT_PREC:
            self.advance()
            left = NotOp(self.nest(_NOT_PREC))
        elif kind == "(":
            self.advance()
            left = self.nest(1)
            self.expect(")")
        elif kind == "IDENT":
            left = VarRef(self.advance())
        else:
            left = Lit(self.parse_value())
        while True:
            op = self.kinds[self.pos]
            prec = _BINARY_PREC.get(op, 0)
            if prec < min_prec:
                return left
            self.advance()
            left = BinOp(op, left, self.parse_expr(prec + 1))


def parse_program(text: str) -> Program:
    """Parse a full ``.sprw`` source into a :class:`Program`."""
    return Parser(text).parse_program()
