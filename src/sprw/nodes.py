"""Pattern-language syntax tree.

All nodes are frozen slotted dataclasses, built by :func:`sprw.values.frozen`
(whose ``__init__`` writes each slot directly), so parsed programs are
immutable values that hash and compare field by field; expansion and
compilation build new trees instead of mutating.  A field may have a default
but not a default factory.

A parsed pattern body is always an :class:`OrGroup` of :class:`AndGroup` of
:class:`ElemPattern` leaves (the surface grammar has no parentheses, and
``and`` binds tighter than ``or``).  Expansion of named references may splice
a composite body into a leaf position, so expanded bodies are general trees.
"""

from __future__ import annotations

from .values import Duration, Symbol, Value, frozen

# --------------------------------------------------------------------------
# selector terms


@frozen
class Const:
    value: Value


@frozen
class Var:
    name: str


@frozen
class MustDistinct:
    """``!name`` — the bound values must be pairwise distinct across a group."""

    name: str


@frozen
class MayDistinct:
    """``@name`` — matches any value, adds no constraint and no binding."""

    name: str


Term = Const | Var | MustDistinct | MayDistinct


@frozen
class Selector:
    """A message shape: constant type tag plus ordered attribute terms."""

    type_tag: Symbol
    terms: tuple[Term, ...]


# --------------------------------------------------------------------------
# guard / transformer expressions


@frozen
class Lit:
    value: Value


@frozen
class VarRef:
    name: str


@frozen
class NotOp:
    operand: "Expr"


@frozen
class BinOp:
    op: str  # and or == != < <= > >= + - * /
    left: "Expr"
    right: "Expr"


Expr = Lit | VarRef | NotOp | BinOp


@frozen
class FoldFn:
    """``fn({_, _, v}, acc) -> body end`` — params destructure the full
    message tuple (type tag first); ``None`` entries are wildcards."""

    params: tuple[str | None, ...]
    acc_name: str
    body: Expr


@frozen
class Fold:
    init: Expr
    fn: FoldFn


@frozen
class Bind:
    name: str


Transformer = Fold | Bind


# --------------------------------------------------------------------------
# elementary-pattern operators


@frozen
class Window:
    duration: Duration


@frozen
class Debounce:
    duration: Duration


@frozen
class Every:
    n: int


@frozen
class Count:
    n: int


ElemOperator = Window | Debounce | Every | Count


# --------------------------------------------------------------------------
# named-reference refinements


@frozen
class InlineGuard:
    """``name = literal`` — substitute the variable with a constant."""

    name: str
    value: Expr


@frozen
class AliasOp:
    """``src ~> dst`` — rename a logic variable during expansion."""

    src: str
    dst: str


@frozen
class DistinctMark:
    """``@name`` / ``!name`` inside a refinement group — re-mark a variable."""

    marker: str  # "@" or "!"
    name: str


Refinement = InlineGuard | AliasOp | DistinctMark


@frozen
class NamedRef:
    name: str
    refinements: tuple[Refinement, ...] = ()


# --------------------------------------------------------------------------
# pattern bodies


@frozen
class ElemPattern:
    negated: bool
    base: Selector | NamedRef
    operators: tuple[ElemOperator, ...] = ()
    transformers: tuple[Transformer, ...] = ()


@frozen
class AndGroup:
    parts: tuple["Body", ...]


@frozen
class OrGroup:
    alts: tuple["Body", ...]


Body = ElemPattern | AndGroup | OrGroup


def body_leaves(body: Body) -> list[ElemPattern]:
    """All elementary leaves in textual (left-to-right) order."""
    if isinstance(body, ElemPattern):
        return [body]
    parts = body.parts if isinstance(body, AndGroup) else body.alts
    out: list[ElemPattern] = []
    for p in parts:
        if isinstance(p, ElemPattern):
            out.append(p)
        else:
            out.extend(body_leaves(p))
    return out


@frozen
class Options:
    seq: bool = False
    interval: Duration | None = None
    last: bool = False
    debounce: Duration | None = None

    def is_default(self) -> bool:
        """``self == Options()``, without building one."""
        return not (self.seq or self.last) and self.interval is None and self.debounce is None


@frozen
class PatternAst:
    name: str
    body: Body
    guard: Expr | None = None
    options: Options = Options()


@frozen
class ReactionBinding:
    pattern: str
    label: str
    emit_form: bool = False  # surface style only: `emit(label)` vs bare label


@frozen
class Program:
    patterns: tuple[PatternAst, ...]
    bindings: tuple[ReactionBinding, ...] = ()

    def pattern_named(self, name: str) -> PatternAst | None:
        for p in self.patterns:
            if p.name == name:
                return p
        return None
