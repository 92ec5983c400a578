"""Runtime values and durations.

Attribute values are plain Python ``int``/``float``/``str``/``bool`` plus the
interned-identifier :class:`Symbol`.  Structural equality is deliberately
stricter than Python ``==``: ints and floats never compare equal, and bools
are not ints.  Guard evaluation has its own numeric comparison; everything
that feeds unification or distinctness must go through :func:`values_equal`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


def frozen(cls):
    """``dataclass(frozen=True, slots=True)`` with a cheaper ``__init__``.

    A frozen dataclass's own ``__init__`` calls ``object.__setattr__`` once
    per field, which costs about twice as much as writing the slot; this one
    writes each field through its slot descriptor.  Everything else (equality
    and hashing field by field, ``repr``, ``FrozenInstanceError`` on
    assignment, ``dataclasses.fields`` and ``replace``) is the dataclass's
    own.  A field may have a default, not a default factory."""
    cls = dataclass(frozen=True, slots=True)(cls)
    namespace = {}
    params, body = ["self"], []
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: frozen fields take no default factory")
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        namespace[f"_default_{f.name}"] = f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    exec(f"def __init__({', '.join(params)}):\n" + "\n".join(body), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@frozen
class Symbol:
    """Interned identifier written ``:name`` in the surface language."""

    name: str

    def __repr__(self) -> str:
        return f":{self.name}"


Value = Symbol | int | float | str | bool


def values_equal(a: Value, b: Value) -> bool:
    """Structural equality: same kind and same content, no numeric coercion."""
    if type(a) is not type(b):
        return False
    return a == b


def value_in(v: Value, seq) -> bool:
    return any(values_equal(v, x) for x in seq)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


UNIT_MS = {
    "secs": 1_000,
    "mins": 60_000,
    "hours": 3_600_000,
    "days": 86_400_000,
    "weeks": 604_800_000,
}

TIME_UNITS = tuple(UNIT_MS)


@frozen
class Duration:
    """A surface duration like ``{2, :mins}``.

    The written amount/unit pair is preserved verbatim for printing;
    canonicalisation to milliseconds happens only when compiling.
    """

    amount: int
    unit: str

    @property
    def ms(self) -> int:
        return self.amount * UNIT_MS[self.unit]
