"""Canonical text rendering of pattern programs.

``parse(pretty_print(ast)) == ast`` holds for every parseable AST, and
``pretty_print`` is a fixed point over parse/print cycles (byte-stable).
Expanded bodies that no longer fit the surface grammar (a composite spliced
into a leaf position) render with parentheses; that form is display-only.
"""

from __future__ import annotations

from .nodes import (
    AliasOp,
    AndGroup,
    Bind,
    BinOp,
    Body,
    Const,
    Count,
    Debounce,
    DistinctMark,
    ElemPattern,
    Every,
    Expr,
    Fold,
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
from .parser import _BINARY_PREC, _NOT_PREC
from .values import Duration, Symbol, Value


def value_text(v: Value) -> str:
    if isinstance(v, Symbol):
        return f":{v.name}"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        body = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
        return f'"{body}"'
    return repr(v)


def duration_text(d: Duration) -> str:
    return f"{{{d.amount}, :{d.unit}}}"


def expr_text(e: Expr) -> str:
    return _expr(e)[0]


def _expr(e: Expr) -> tuple[str, int]:
    if isinstance(e, Lit):
        return value_text(e.value), 7
    if isinstance(e, VarRef):
        return e.name, 7
    if isinstance(e, NotOp):
        inner, prec = _expr(e.operand)
        if prec < _NOT_PREC:
            inner = f"({inner})"
        return f"not {inner}", _NOT_PREC
    prec = _BINARY_PREC[e.op]
    left, lp = _expr(e.left)
    right, rp = _expr(e.right)
    if lp < prec:
        left = f"({left})"
    if rp <= prec:  # all binary operators are left-associative
        right = f"({right})"
    return f"{left} {e.op} {right}", prec


def _term_text(t) -> str:
    if isinstance(t, Const):
        return value_text(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, MustDistinct):
        return f"!{t.name}"
    if isinstance(t, MayDistinct):
        return f"@{t.name}"
    raise TypeError(t)


def selector_text(sel: Selector) -> str:
    parts = [f":{sel.type_tag.name}"] + [_term_text(t) for t in sel.terms]
    return "{" + ", ".join(parts) + "}"


def _refinement_text(r) -> str:
    if isinstance(r, InlineGuard):
        return f"{r.name} = {expr_text(r.value)}"
    if isinstance(r, AliasOp):
        return f"{r.src} ~> {r.dst}"
    if isinstance(r, DistinctMark):
        return f"{r.marker}{r.name}"
    raise TypeError(r)


def _operator_text(op) -> str:
    if isinstance(op, Window):
        return f"window: {duration_text(op.duration)}"
    if isinstance(op, Debounce):
        return f"debounce: {duration_text(op.duration)}"
    if isinstance(op, Every):
        return f"every: {op.n}"
    if isinstance(op, Count):
        return f"count: {op.n}"
    raise TypeError(op)


def _transformer_text(t) -> str:
    if isinstance(t, Fold):
        params = ", ".join(p if p is not None else "_" for p in t.fn.params)
        return (
            f"fold({expr_text(t.init)}, "
            f"fn({{{params}}}, {t.fn.acc_name}) -> {expr_text(t.fn.body)} end)"
        )
    if isinstance(t, Bind):
        return f"bind({t.name})"
    raise TypeError(t)


def elem_text(elem: ElemPattern) -> str:
    out = "not " if elem.negated else ""
    if isinstance(elem.base, Selector):
        out += selector_text(elem.base)
    else:
        out += elem.base.name
        if elem.base.refinements:
            out += "{" + ", ".join(_refinement_text(r) for r in elem.base.refinements) + "}"
    if elem.operators:
        out += "[" + ", ".join(_operator_text(op) for op in elem.operators) + "]"
    for t in elem.transformers:
        out += f" |> {_transformer_text(t)}"
    return out


def body_text(body: Body) -> str:
    return _body(body, top=True)


def _body(body: Body, top: bool = False) -> str:
    # Parsed bodies are OrGroup(AndGroup(leaf...)); anything deeper comes from
    # expansion and gets display-only parentheses.
    if isinstance(body, ElemPattern):
        return elem_text(body)
    if isinstance(body, OrGroup):
        rendered = [_body(a) for a in body.alts]
        text = " or ".join(rendered)
        if not top and len(body.alts) > 1:
            return f"({text})"
        return text
    return " and ".join(_body(p) for p in body.parts)


def options_text(opts: Options) -> str:
    parts = []
    if opts.seq:
        parts.append("seq: true")
    if opts.interval is not None:
        parts.append(f"interval: {duration_text(opts.interval)}")
    if opts.last:
        parts.append("last: true")
    if opts.debounce is not None:
        parts.append(f"debounce: {duration_text(opts.debounce)}")
    return "[" + ", ".join(parts) + "]"


def pattern_text(p: PatternAst) -> str:
    out = f"pattern {p.name} as {body_text(p.body)}"
    if p.guard is not None:
        out += f" when {expr_text(p.guard)}"
    if not p.options.is_default():
        out += f", options: {options_text(p.options)}"
    return out


def binding_text(b: ReactionBinding) -> str:
    target = f"emit({b.label})" if b.emit_form else b.label
    return f"react_to {b.pattern}, with: {target}"


def pretty_print(program: Program | PatternAst) -> str:
    """Render a program (or a single pattern) as canonical source text."""
    if isinstance(program, PatternAst):
        return pattern_text(program)
    lines = [pattern_text(p) for p in program.patterns]
    lines += [binding_text(b) for b in program.bindings]
    return "\n".join(lines) + ("\n" if lines else "")
