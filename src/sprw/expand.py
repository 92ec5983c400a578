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

from operator import is_

from .errors import ExpandError
from .nodes import (
    AliasOp,
    AndGroup,
    BinOp,
    Bind,
    Body,
    Const,
    ElemPattern,
    Expr,
    Fold,
    InlineGuard,
    Lit,
    MayDistinct,
    MustDistinct,
    NotOp,
    OrGroup,
    PatternAst,
    Program,
    Selector,
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
        extra_guards: list[Expr] = []
        body = _expand_body(pattern.body, expanded, extra_guards)
        guard = pattern.guard
        for g in extra_guards:
            guard = g if guard is None else BinOp("and", g, guard)
        new = PatternAst(pattern.name, body, guard, pattern.options)
        expanded[pattern.name] = new
        out.append(new)
    return Program(tuple(out), program.bindings)


def _expand_body(body: Body, env: dict[str, PatternAst], guards: list[Expr]) -> Body:
    """``body`` with every named reference expanded, flattened as it is
    rebuilt: no group holds a group of its own kind, and no ``and`` holds a
    one-alternative ``or``.  Appends each referenced pattern's guard to
    ``guards``.  A subtree that needs neither is returned as it is."""
    if isinstance(body, ElemPattern):
        return _expand_elem(body, env, guards)
    conj = isinstance(body, AndGroup)
    old = body.parts if conj else body.alts
    parts: list[Body] = []
    for part in old:
        new = _expand_body(part, env, guards)
        if isinstance(new, ElemPattern):
            parts.append(new)
            continue
        if conj and isinstance(new, OrGroup) and len(new.alts) == 1:
            new = new.alts[0]
        if conj and isinstance(new, AndGroup):
            parts.extend(new.parts)
        elif not conj and isinstance(new, OrGroup):
            parts.extend(new.alts)
        else:
            parts.append(new)
    if len(parts) == len(old) and all(map(is_, parts, old)):
        return body
    return AndGroup(tuple(parts)) if conj else OrGroup(tuple(parts))


def _expand_elem(elem: ElemPattern, env: dict[str, PatternAst], guards: list[Expr]) -> Body:
    if isinstance(elem.base, Selector):
        return elem
    ref = elem.base
    target = env.get(ref.name)
    if target is None:
        raise ExpandError("UnknownPatternRef", f"unknown pattern {ref.name!r}")
    if not target.options.is_default():
        raise ExpandError(
            "ReferencedPatternHasOptions",
            f"pattern {ref.name!r} carries options and cannot be reused inline",
        )
    if target.guard is not None:
        guards.append(target.guard)
    leaves = body_leaves(target.body)
    if len(leaves) == 1:  # refine the one leaf, not the groups around it
        inner = _apply_refinements(leaves[0], ref.refinements, ref.name)
        if not (elem.negated or elem.operators or elem.transformers):
            return inner  # nothing to merge, and its transformers are in order
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
        return merged

    # composite reference: splice the subtree as-is
    body = _apply_refinements(target.body, ref.refinements, ref.name)
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
    return body


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
        if isinstance(term, Const):
            return term
        if term.name in consts:
            return consts[term.name]
        if term.name in renames:
            new, mark = renames[term.name]
            return (mark or type(term))(new)
        return term

    return _map_terms(body, rewrite)


def _term_names(body: Body) -> set[str]:
    """The names of the variables and marked variables in ``body``'s selectors."""
    return {t.name for leaf in body_leaves(body) if isinstance(leaf.base, Selector)
            for t in leaf.base.terms if not isinstance(t, Const)}


def _map_terms(body: Body, fn) -> Body:
    """``body`` with ``fn`` applied to every selector term; subtrees whose
    terms ``fn`` leaves unchanged are kept as they are."""
    if isinstance(body, ElemPattern):
        base = body.base
        if not isinstance(base, Selector):
            return body
        terms = tuple([fn(t) for t in base.terms])
        if all(map(is_, terms, base.terms)):
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
