"""Named-pattern expansion.

References are inlined *unhygienically*: the referenced pattern's variable
names merge with the enclosing pattern's scope, so shared names unify across
constituents (and sometimes by accident — see the aliasing refinement, which
exists precisely to undo that).

A reference may only point at an already-declared pattern (expansion is
sequential, like macro expansion), which also rules out cycles.  The
referenced pattern's guard is conjoined into the referring pattern's guard;
referenced patterns must not carry options.
"""

from __future__ import annotations

from .errors import ExpandError
from .nodes import (
    AliasOp,
    AndGroup,
    BinOp,
    Bind,
    Body,
    Const,
    DistinctMark,
    ElemPattern,
    Expr,
    Fold,
    InlineGuard,
    Lit,
    MayDistinct,
    MustDistinct,
    NamedRef,
    NotOp,
    OrGroup,
    PatternAst,
    Program,
    Selector,
    Var,
    body_leaves,
)
from .values import Value


def expand(program: Program) -> Program:
    """Replace every named reference by a copy of the referenced body."""
    declared = {p.name for p in program.patterns}
    for b in program.bindings:
        if b.pattern not in declared:
            raise ExpandError(
                "UnknownPatternRef", f"react_to references undeclared pattern {b.pattern!r}"
            )
    expanded: dict[str, PatternAst] = {}
    out = []
    for pattern in program.patterns:
        body, extra_guards = _expand_body(pattern.body, expanded)
        guard = pattern.guard
        for g in extra_guards:
            guard = g if guard is None else BinOp("and", g, guard)
        new = PatternAst(pattern.name, _flatten(body), guard, pattern.options)
        expanded[pattern.name] = new
        out.append(new)
    return Program(tuple(out), program.bindings)


def _expand_body(body: Body, env: dict[str, PatternAst]) -> tuple[Body, list[Expr]]:
    if isinstance(body, ElemPattern):
        return _expand_elem(body, env)
    parts = body.parts if isinstance(body, AndGroup) else body.alts
    new_parts = []
    guards: list[Expr] = []
    for p in parts:
        np, gs = _expand_body(p, env)
        new_parts.append(np)
        guards.extend(gs)
    cls = AndGroup if isinstance(body, AndGroup) else OrGroup
    return cls(tuple(new_parts)), guards


def _expand_elem(elem: ElemPattern, env: dict[str, PatternAst]) -> tuple[Body, list[Expr]]:
    if isinstance(elem.base, Selector):
        return elem, []
    ref = elem.base
    target = env.get(ref.name)
    if target is None:
        raise ExpandError("UnknownPatternRef", f"unknown pattern {ref.name!r}")
    if not target.options.is_default():
        raise ExpandError(
            "ReferencedPatternHasOptions",
            f"pattern {ref.name!r} carries options and cannot be reused inline",
        )
    body = _apply_refinements(target.body, ref.refinements, ref.name)
    guards = [target.guard] if target.guard is not None else []

    leaves = body_leaves(body)
    if len(leaves) == 1:
        inner = leaves[0]
        negated = elem.negated or inner.negated
        if elem.negated and inner.negated:
            raise ExpandError(
                "NegatedNegation", f"reference {ref.name!r} is already negated"
            )
        seen = {type(op) for op in inner.operators}
        for op in elem.operators:
            if type(op) in seen:
                raise ExpandError(
                    "DuplicateOperator",
                    f"operator {type(op).__name__.lower()!r} appears on both "
                    f"{ref.name!r} and its reference",
                )
            seen.add(type(op))
        merged = ElemPattern(
            negated,
            inner.base,
            inner.operators + elem.operators,
            inner.transformers + elem.transformers,
        )
        _check_transformer_order(merged, ref.name)
        return merged, guards

    # composite reference: splice the subtree as-is
    if elem.negated:
        raise ExpandError(
            "NegatedCompositeRef", f"cannot negate composite pattern {ref.name!r}"
        )
    if elem.operators:
        raise ExpandError(
            "OperatorsOnCompositeRef",
            f"cannot attach operators to composite pattern {ref.name!r}",
        )
    if elem.transformers:
        raise ExpandError(
            "TransformersOnCompositeRef",
            f"cannot attach transformers to composite pattern {ref.name!r}",
        )
    return body, guards


def _check_transformer_order(elem: ElemPattern, name: str) -> None:
    saw_fold = False
    for t in elem.transformers:
        if isinstance(t, Fold):
            saw_fold = True
        elif isinstance(t, Bind) and not saw_fold:
            raise ExpandError(
                "BindWithoutFold", f"bind precedes fold after expanding {name!r}"
            )


def _apply_refinements(body: Body, refinements, ref_name: str) -> Body:
    """Apply ``refinements`` in order with one rewrite of the body's terms.

    Each refinement is checked against the names the earlier ones leave, and
    an alias never merges two names, so every name the body spells maps to
    one final term: a constant, or a variable under its last spelling and
    distinctness marker."""
    if not refinements:
        return body
    # each live name -> the name as the body spells it
    spelled = {n: n for n in _term_names(body)}
    consts: dict[str, Const] = {}
    marks: dict[str, type] = {}
    inlined: set[str] = set()
    for r in refinements:
        if isinstance(r, InlineGuard):
            if r.name not in spelled:
                if r.name in inlined:
                    raise ExpandError(
                        "InlineGuardOnConst",
                        f"{r.name!r} is already a constant in {ref_name!r}",
                    )
                raise ExpandError(
                    "RefinementUnknownVar",
                    f"{ref_name!r} has no variable {r.name!r}",
                )
            consts[spelled.pop(r.name)] = Const(_const_eval(r.value))
            inlined.add(r.name)
        elif isinstance(r, AliasOp):
            if r.src not in spelled:
                raise ExpandError(
                    "RefinementUnknownVar",
                    f"{ref_name!r} has no variable {r.src!r}",
                )
            if r.dst in spelled:
                raise ExpandError(
                    "AliasCollision",
                    f"alias target {r.dst!r} already names a variable in {ref_name!r}",
                )
            spelled[r.dst] = spelled.pop(r.src)
        else:  # DistinctMark
            if r.name not in spelled:
                raise ExpandError(
                    "RefinementUnknownVar",
                    f"{ref_name!r} has no variable {r.name!r}",
                )
            marks[spelled[r.name]] = MustDistinct if r.marker == "!" else MayDistinct
    # name as spelled -> (final name, marker or None to keep the term's kind)
    renames = {
        old: (new, marks.get(old)) for new, old in spelled.items() if new != old or old in marks
    }

    def rewrite(term):
        name = _named(term)
        if name in consts:
            return consts[name]
        if name in renames:
            new, mark = renames[name]
            return (mark or type(term))(new)
        return term

    return _map_terms(body, rewrite)


def _named(term) -> str | None:
    if isinstance(term, (Var, MustDistinct, MayDistinct)):
        return term.name
    return None


def _term_names(body: Body) -> set[str]:
    names: set[str] = set()
    for leaf in body_leaves(body):
        if isinstance(leaf.base, Selector):
            for t in leaf.base.terms:
                n = _named(t)
                if n is not None:
                    names.add(n)
    return names


def _map_terms(body: Body, fn) -> Body:
    """``body`` with ``fn`` applied to every selector term; subtrees whose
    terms ``fn`` leaves unchanged are kept as they are."""
    if isinstance(body, ElemPattern):
        base = body.base
        if not isinstance(base, Selector):
            return body
        terms = tuple([fn(t) for t in base.terms])
        if terms == base.terms:
            return body
        return ElemPattern(body.negated, Selector(base.type_tag, terms),
                           body.operators, body.transformers)
    if isinstance(body, AndGroup):
        return AndGroup(tuple([_map_terms(p, fn) for p in body.parts]))
    return OrGroup(tuple([_map_terms(p, fn) for p in body.alts]))


def _const_eval(e: Expr) -> Value:
    """Inline-guard right-hand sides must be closed literals."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, NotOp):
        v = _const_eval(e.operand)
        if isinstance(v, bool):
            return not v
    raise ExpandError(
        "InlineGuardNotConst", "inline guard value must be a literal"
    )


def _flatten(body: Body) -> Body:
    """Collapse redundant single-child groups and nested same-kind groups."""
    if isinstance(body, ElemPattern):
        return body
    if isinstance(body, AndGroup):
        parts: list[Body] = []
        for p in body.parts:
            fp = _flatten(p)
            if isinstance(fp, OrGroup) and len(fp.alts) == 1:
                fp = fp.alts[0]
            if isinstance(fp, AndGroup):
                parts.extend(fp.parts)
            else:
                parts.append(fp)
        return AndGroup(tuple(parts))
    alts: list[Body] = []
    for a in body.alts:
        fa = _flatten(a)
        if isinstance(fa, OrGroup):
            alts.extend(fa.alts)
        else:
            alts.append(fa)
    return OrGroup(tuple(alts))
