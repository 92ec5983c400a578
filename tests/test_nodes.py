"""The value contract of syntax-tree nodes, ``Symbol`` and ``Duration``.

They are built through :func:`sprw.values.frozen`, which replaces the
dataclass ``__init__``; everything a caller may rely on must stay as a frozen
slotted dataclass has it.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import sprw.nodes as nodes
from sprw.values import Duration, Symbol, frozen

CLASSES = [
    cls for _, cls in inspect.getmembers(nodes, inspect.isclass)
    if cls.__module__ == nodes.__name__ and dataclasses.is_dataclass(cls)
] + [Symbol, Duration]


def test_every_node_class_is_covered():
    assert len(CLASSES) == 29
    assert {"Var", "Selector", "ElemPattern", "PatternAst", "Program", "Options"} <= {
        cls.__name__ for cls in CLASSES}


def sample(cls, tag: str):
    """An instance whose every field holds a distinct hashable value."""
    return cls(*[f"{f.name}-{tag}" for f in dataclasses.fields(cls)])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_frozen_value_contract(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    a, b = sample(cls, "x"), sample(cls, "x")
    assert a is not b and a == b and hash(a) == hash(b)
    assert [getattr(a, n) for n in names] == [f"{n}-x" for n in names]
    assert cls(**{n: getattr(a, n) for n in names}) == a
    assert not hasattr(a, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
        changed = dataclasses.replace(a, **{name: "other"})
        assert changed != a and getattr(changed, name) == "other"
        assert all(getattr(changed, n) == getattr(a, n) for n in names if n != name)
        assert dataclasses.replace(changed, **{name: getattr(a, name)}) == a
    assert a != sample(cls, "y")
    if cls is Symbol:
        assert repr(a) == ":name-x"
    else:
        fields = ", ".join(f"{n}={getattr(a, n)!r}" for n in names)
        assert repr(a) == f"{cls.__name__}({fields})"


def test_nodes_of_different_classes_differ():
    assert nodes.Var("x") != nodes.VarRef("x")
    assert nodes.MayDistinct("x") != nodes.MustDistinct("x")
    assert Symbol("a") != "a"


def test_defaults_and_keywords():
    assert nodes.Options() == nodes.Options(False, None, False, None)
    assert nodes.Options(last=True).last is True
    ast = nodes.PatternAst("p", nodes.OrGroup(()))
    assert ast.guard is None and ast.options == nodes.Options()
    assert nodes.NamedRef("n").refinements == ()
    with pytest.raises(TypeError):
        nodes.Var()
    with pytest.raises(TypeError):
        nodes.Var("x", "y")
    with pytest.raises(TypeError):
        nodes.Var(name="x", other=1)


def test_default_factories_are_refused():
    with pytest.raises(TypeError):
        @frozen
        class WithFactory:
            items: list = dataclasses.field(default_factory=list)
