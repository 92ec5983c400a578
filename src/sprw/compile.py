"""Compilation of an expanded program into a discrimination-network plan.

The compiled form is pure data shared by the incremental engine and the
brute-force oracle: alpha-node signatures (constant tests plus every/debounce
config, deduplicated across patterns), per-pattern alternatives in disjunctive
normal form, and per-type retention bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .errors import CompileError
from .nodes import (
    Body,
    Const,
    Count,
    Debounce,
    ElemPattern,
    Every,
    MustDistinct,
    NamedRef,
    Options,
    OrGroup,
    Program,
    Selector,
    Var,
    Window,
)
from .matching import compile_expr, compile_transformers
from .values import Symbol, Value, values_equal


@dataclass(slots=True)
class CompiledConstituent:
    cons_index: int
    slot: tuple[int, int, int]  # (pattern, alternative, constituent) index
    negated: bool
    selector: Selector
    count_n: int | None
    window_ms: int | None
    transformers: Callable | None  # the compiled fold/bind chain
    accumulates: bool  # count or window: the slot contributes a greedy group
    # non-constant terms as (attr index, name, kind 0=var/1=must-distinct);
    # constant tests are already guaranteed by the alpha node, and
    # may-distinct terms impose nothing, so the join only walks these
    bind_terms: tuple[tuple[int, str, int], ...] = ()
    needs_local_check: bool = False  # selector repeats a variable name
    must_distinct: bool = False  # selector has a ``!name`` term
    # age past which a buffered candidate provably cannot join any future
    # combination (pattern interval plus the tightest partner window)
    slot_bound_ms: int | None = None
    # a plain positive's variables shared with the alternative's other
    # positives, or a negative's variables the positives bind, as (attr index,
    # name) per position.  Non-empty means the slot keeps a hash index on
    # these values, so a join step or a negation fetches just the messages
    # whose key agrees with the environment, not the whole buffer
    join_key: tuple[tuple[int, str], ...] = ()
    # on a keyed slot: the index key of a message's attrs, and the key a join
    # step probes with from an environment binding every key variable.  A
    # key of one variable is its value, a longer one the tuple of its values
    attrs_key: Callable | None = None
    probe_key: Callable | None = None
    # the positives before this one bind the whole key, so a search in
    # textual order can probe the index here
    probe_in_order: bool = False
    # on a delta alternative: per other positive, (its index among the
    # positives, the key of that positive's index taken from this slot's
    # messages' attrs), so a new message can look for its partners there
    partner_keys: tuple[tuple[int, Callable], ...] = ()
    # plain positives beside windowed negatives: the longest of those windows.
    # Each negation rejects a combination until its window has passed since
    # the combination's newest message, so a message of this slot can only
    # join a valid combination once it is this old (an accumulating slot's
    # greedy group depends on every message it may take, so it has none)
    settle_ms: int | None = None
    # the fewest buffered messages the slot needs for any combination: a
    # count group below its target fails unless a window lets a guard or
    # transformer arbitrate it
    min_group: int = 1


@dataclass(slots=True)
class CompiledAlternative:
    constituents: list[CompiledConstituent]
    positives: list[CompiledConstituent]
    negatives: list[CompiledConstituent]
    # nothing is negated and every positive is plain and keyed on the same
    # variables, so any one positive binds every other's key: the engine may
    # search only combinations that hold a message newer than its last
    # fruitless evaluation
    delta: bool = False
    # seq, interval or a windowed negation: the search tracks each partial
    # combination's order and ts spread
    ordered: bool = False
    # the positives that carry transformers, in textual order
    transformed: tuple[CompiledConstituent, ...] = ()


@dataclass(slots=True)
class CompiledPattern:
    index: int
    name: str
    alternatives: list[CompiledAlternative]
    guard: Callable | None  # compiled by compile_expr
    seq: bool
    interval_ms: int | None
    last: bool
    debounce_ms: int | None


@dataclass(slots=True)
class AlphaSpec:
    """One shared alpha node: constant tests plus stream-operator config."""

    key: tuple
    type_tag: Symbol
    arity: int
    const_tests: tuple[tuple[int, Value], ...]
    every_n: int | None
    debounce_ms: int | None
    targets: list = field(default_factory=list)  # (pattern idx, alt idx, constituent)

    def passes_constants(self, attrs: tuple[Value, ...]) -> bool:
        if len(attrs) != self.arity:
            return False
        for idx, expected in self.const_tests:
            if not values_equal(attrs[idx], expected):
                return False
        return True


@dataclass(slots=True)
class CompiledProgram:
    patterns: list[CompiledPattern]
    alphas: dict[tuple, AlphaSpec]
    routing: dict[str, list[AlphaSpec]]  # type-tag name -> its alpha nodes
    retention_ms: dict[str, int | None]  # None = retained until consumed
    bindings: tuple
    source: Program


# the most alternatives a pattern's disjunctive normal form (DNF) may have
MAX_ALTERNATIVES = 1024


def _dnf(body: Body, name: str) -> list[list[ElemPattern]]:
    """The alternatives of pattern ``name``'s ``body``: a sum over ``or`` and
    a product over ``and``.  A sum is counted as each part joins it and a
    product before it is built, so a pattern past MAX_ALTERNATIVES fails fast."""
    if isinstance(body, ElemPattern):
        return [[body]]
    if isinstance(body, OrGroup):
        out: list[list[ElemPattern]] = []
        for alt in body.alts:
            out.extend(_dnf(alt, name))
            if len(out) > MAX_ALTERNATIVES:
                raise _dnf_too_large(name)
        return out
    combos: list[list[ElemPattern]] = [[]]
    for part in body.parts:
        if isinstance(part, ElemPattern):  # one alternative: extend each combination
            for combo in combos:
                combo.append(part)
            continue
        alts = _dnf(part, name)
        if len(combos) * len(alts) > MAX_ALTERNATIVES:
            raise _dnf_too_large(name)
        combos = [c + alt for c in combos for alt in alts]
    return combos


def _dnf_too_large(name: str) -> CompileError:
    return CompileError("DnfTooLarge",
                        f"pattern {name!r} has more than {MAX_ALTERNATIVES} alternatives")


def compile_program(program: Program) -> CompiledProgram:
    """Build the network plan.  The program must already be expanded."""
    patterns: list[CompiledPattern] = []
    alphas: dict[tuple, AlphaSpec] = {}
    routing: dict[str, list[AlphaSpec]] = {}
    join_plans: dict[tuple, tuple] = {}

    for p_idx, past in enumerate(program.patterns):
        opts: Options = past.options
        alternatives: list[CompiledAlternative] = []
        for a_idx, leaves in enumerate(_dnf(past.body, past.name)):
            constituents: list[CompiledConstituent] = []
            for c_idx, leaf in enumerate(leaves):
                selector = leaf.base
                if isinstance(selector, NamedRef):
                    raise CompileError(
                        "UnexpandedRef",
                        f"pattern {past.name!r} still references {selector.name!r}",
                    )
                if leaf.negated and leaf.transformers:
                    raise CompileError(
                        "TransformersOnNegated",
                        f"pattern {past.name!r} applies transformers to a negated constituent",
                    )
                count_n = window_ms = every_n = debounce_ms = None
                for op in leaf.operators:
                    if isinstance(op, Count):
                        count_n = op.n
                    elif isinstance(op, Window):
                        window_ms = op.duration.ms
                    elif isinstance(op, Every):
                        every_n = op.n
                    else:
                        assert isinstance(op, Debounce)
                        debounce_ms = op.duration.ms
                bind_terms = []
                var_names = []
                const_tests = []
                for pos, term in enumerate(selector.terms):
                    kind = type(term)
                    if kind is Var:
                        bind_terms.append((pos, term.name, 0))
                        var_names.append(term.name)
                    elif kind is MustDistinct:
                        bind_terms.append((pos, term.name, 1))
                    elif kind is Const:
                        const_tests.append((pos, term.value))
                tag_name = selector.type_tag.name
                # (type tag name, arity, constant tests as (attr index, type,
                # value, a symbol by its name, which hashes in C), every_n,
                # debounce_ms): constituents with equal keys share one alpha
                # node; the type keeps 1, 1.0 and True apart, and a symbol
                # apart from the string of its name, as values_equal does
                alpha_key = (tag_name, len(selector.terms),
                             tuple([(pos, type(v), v.name if type(v) is Symbol else v)
                                    for pos, v in const_tests]) if const_tests else (),
                             every_n, debounce_ms)
                cons = CompiledConstituent(  # positional: keywords cost twice as much
                    c_idx, (p_idx, a_idx, c_idx), leaf.negated, selector,
                    count_n, window_ms,
                    (_closure(compile_transformers, leaf.transformers, past.name)
                     if leaf.transformers else None),
                    count_n is not None or window_ms is not None,  # accumulates
                    tuple(bind_terms),
                    len(var_names) != len(set(var_names)),  # needs_local_check
                    len(var_names) != len(bind_terms),  # must_distinct
                )
                constituents.append(cons)
                spec = alphas.get(alpha_key)
                if spec is None:
                    spec = alphas[alpha_key] = AlphaSpec(
                        alpha_key, selector.type_tag, len(selector.terms), tuple(const_tests),
                        every_n, debounce_ms,
                    )
                    routing.setdefault(tag_name, []).append(spec)
                spec.targets.append((p_idx, a_idx, cons))
            positives, negatives, windows, transformed = [], [], [], []
            for cons in constituents:  # one pass: a comprehension costs a call
                if cons.negated:
                    negatives.append(cons)
                    if cons.window_ms is not None:
                        windows.append(cons.window_ms)
                else:
                    positives.append(cons)
                    if cons.transformers is not None:
                        transformed.append(cons)
            if not positives:
                raise CompileError(
                    "NoPositiveConstituent",
                    f"pattern {past.name!r} has an alternative with no positive constituent",
                )
            alt = CompiledAlternative(
                constituents, positives, negatives, False,
                bool(windows) or opts.seq or opts.interval is not None,  # ordered
                tuple(transformed),
            )
            for cons in positives:
                if windows and not cons.accumulates:
                    cons.settle_ms = max(windows)
                arbitrated = cons.transformers is not None or past.guard is not None
                if cons.count_n is not None and not (cons.window_ms is not None and arbitrated):
                    cons.min_group = cons.count_n
            _plan_joins(alt, join_plans)
            if negatives:  # each negative is keyed on what the positives bind
                bound = {name for c in positives for _, name, kind in c.bind_terms if kind == 0}
                for neg in negatives:
                    neg.join_key = tuple([(pos, name) for pos, name, kind in neg.bind_terms
                                          if kind == 0 and name in bound])
                    neg.attrs_key, neg.probe_key = _key_getters(neg.join_key)
            alternatives.append(alt)

        interval_ms = opts.interval.ms if opts.interval else None
        if interval_ms is not None:
            for alt in alternatives:
                for cons in alt.positives:
                    if cons.window_ms is not None:
                        continue
                    partners = [
                        o.window_ms for o in alt.positives
                        if o is not cons and o.window_ms is not None
                    ]
                    if partners:
                        cons.slot_bound_ms = interval_ms + min(partners)
        patterns.append(CompiledPattern(
            p_idx, past.name, alternatives,
            _closure(compile_expr, past.guard, past.name) if past.guard is not None else None,
            opts.seq, interval_ms, opts.last, opts.debounce.ms if opts.debounce else None,
        ))

    return CompiledProgram(
        patterns=patterns,
        alphas=alphas,
        routing=routing,
        retention_ms=_retention_bounds(patterns),
        bindings=program.bindings,
        source=program,
    )


def _closure(compile_fn, node, pattern: str):
    """``compile_fn(node)``, reporting an expression too deep for the
    recursive compiler as a typed error."""
    try:
        return compile_fn(node)
    except RecursionError:
        raise CompileError(
            "ExpressionTooDeep", f"pattern {pattern!r} has an expression nested too deeply"
        ) from None


def _plan_joins(alt: CompiledAlternative, plans: dict[tuple, tuple]) -> None:
    """Set each plain positive's index key and partner keys, and the
    alternative's delta flag.

    The plan depends only on the positives' variable terms, so alternatives
    of one shape (common among refinements of a named pattern) share it."""
    positives = alt.positives
    if len(positives) < 2:
        return
    shape = (bool(alt.negatives), *[(c.bind_terms, c.accumulates) for c in positives])
    plan = plans.get(shape)
    if plan is None:
        plan = plans[shape] = _join_plan(alt)
    keys, alt.delta, partners = plan
    for cons, (key, probe, getters), partners in zip(positives, keys, partners):
        cons.join_key = key
        cons.probe_in_order = probe
        cons.attrs_key, cons.probe_key = getters
        cons.partner_keys = partners


def _join_plan(alt: CompiledAlternative) -> tuple:
    """((join_key, probe_in_order, _key_getters) per positive, delta,
    partner_keys per positive) for one alternative."""
    positives = alt.positives
    binders: dict[str, int] = {}  # variable -> number of positives binding it
    for cons in positives:
        for name in {name for _, name, kind in cons.bind_terms if kind == 0}:
            binders[name] = binders.get(name, 0) + 1
    keys = []
    bound: set[str] = set()  # variables bound by the positives before cons
    for cons in positives:
        key = () if cons.accumulates else tuple(
            [(pos, name) for pos, name, kind in cons.bind_terms if kind == 0 and binders[name] > 1]
        )
        keys.append((key, bool(key) and all(name in bound for _, name in key), _key_getters(key)))
        bound.update([name for _, name, kind in cons.bind_terms if kind == 0])
    # a seed binds every other positive's key exactly when each shared
    # variable is bound by every positive
    shared = [n for n in binders.values() if n > 1]
    delta = (
        not alt.negatives
        and bool(shared)
        and all(n == len(positives) for n in shared)
        and not any(c.accumulates for c in positives)
    )
    partners = [()] * len(positives)
    if delta:  # every positive binds every key variable, here at these positions
        where = [{name: pos for pos, name, kind in c.bind_terms if kind == 0} for c in positives]
        partners = [
            tuple([(k, itemgetter(*[at[name] for _, name in key]))
                   for k, (key, _, _) in enumerate(keys) if k != j])
            for j, at in enumerate(where)
        ]
    return keys, delta, partners


def _key_getters(key: tuple[tuple[int, str], ...]) -> tuple:
    """(attrs_key, probe_key) of a join key; (None, None) for no key."""
    if not key:
        return None, None
    return itemgetter(*[pos for pos, _ in key]), itemgetter(*[name for _, name in key])


class AlphaRouter:
    """Stateful pass/drop filter over the shared alpha nodes.

    Every(n) counts messages passing the node's constant tests and passes
    each n-th; Debounce(d) is leading-edge (passes, then drops followers
    within d of the last passed message).  State is per alpha node, so
    patterns sharing a node share the counter.
    """

    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.counts: dict[tuple, int] = {}
        self.last_passed: dict[tuple, int] = {}

    def route(self, type_tag_name: str, attrs, ts: int) -> list[AlphaSpec]:
        passing = []
        for spec in self.compiled.routing.get(type_tag_name, ()):
            if not spec.passes_constants(attrs):
                continue
            key = spec.key
            if spec.every_n is not None:
                count = self.counts.get(key, 0) + 1
                self.counts[key] = count
                if count % spec.every_n != 0:
                    continue
            if spec.debounce_ms is not None:
                last = self.last_passed.get(key)
                if last is not None and ts - last <= spec.debounce_ms:
                    continue
                self.last_passed[key] = ts
            passing.append(spec)
        return passing


def expiry_bounds(compiled: CompiledProgram, lifetime_ms: int | None) -> dict[str, int | None]:
    """Per referenced message type: the greatest age at which a message of it
    is still live, the lower of ``lifetime_ms`` and the type's retention
    bound (None when neither bounds it)."""
    return {
        tag: lifetime_ms if bound is None or lifetime_ms is not None and lifetime_ms < bound
        else bound
        for tag, bound in compiled.retention_ms.items()
    }


def death_age(cons: CompiledConstituent, bound: int | None) -> int | None:
    """The least message age at which a message buffered for ``cons`` can
    never take part in a combination again: its window, one past its slot
    bound, or one past ``bound``, the expiry bound of its type; None when
    none is set.  Ages are integer milliseconds, and a message only dies with
    age, so the dead messages of a ts-ascending buffer are a prefix."""
    ages = [b + 1 for b in (cons.slot_bound_ms, bound) if b is not None]
    if cons.window_ms is not None:
        ages.append(cons.window_ms)
    return min(ages, default=None)


def _retention_bounds(patterns: list[CompiledPattern]) -> dict[str, int | None]:
    """Useful lifetime per message type: max over referencing windows and
    pattern intervals; any unwindowed reference in an interval-free pattern
    makes the type live until consumed (None)."""
    bounds: dict[str, int | None] = {}
    unbounded: set[str] = set()
    for cp in patterns:
        for alt in cp.alternatives:
            for cons in alt.constituents:
                tag = cons.selector.type_tag.name
                if cons.window_ms is not None:
                    b = cons.window_ms
                elif not cons.negated and cp.interval_ms is not None:
                    b = cp.interval_ms
                else:
                    unbounded.add(tag)
                    continue
                prev = bounds.get(tag)
                if prev is None or b > prev:
                    bounds[tag] = b
    for tag in sorted(unbounded):  # a set's order varies with the hash seed
        bounds[tag] = None
    return bounds
