"""Record classes: the package's ASTs, algebra instances and results.

`@record` and `@record(frozen=True)` give a class the methods that the
standard library's data classes generate, with the same meaning, but
build them cheaply.  Generating them with the standard library, which
imports `inspect` and runs several `exec`s per class, was a third of the
package's start-up, and every `wgcl` command is a fresh process.

- The fields are the names annotated in the class body, after those of
  its record bases; a non-record base (`Statement`, `Algebra`) adds none.
  A field's default is the class attribute of its name, if any.
- `__init__(self, *fields)` takes them by position or by name and sets
  them with `object.__setattr__`.  It is generated once per tuple of
  field names, and classes with the same names share its code.
- `__eq__` holds between instances of the same class with equal field
  tuples, and `__hash__` is the hash of that tuple; a mutable record is
  unhashable.  `__repr__` prints `Name(field=value, ...)`.
- A frozen record raises `FrozenInstanceError`, an `AttributeError`, on
  setting or deleting an attribute.  A `cached_property` writes into
  `__dict__` directly, so it still caches on a frozen record.
- `__match_args__` is the field tuple, as on a standard data class.

A method the class body defines itself is kept.
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr
from types import FunctionType


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen record."""


_MISSING = object()
# `object.__setattr__` passes a frozen record's own `__setattr__` by, and
# keeps the instance's attributes in CPython's compact per-object layout,
# which writing into `self.__dict__` would turn into a full dict, slowing
# every attribute read
_INIT_GLOBALS = {"__set": object.__setattr__}
_SHARED: dict = {}  # field names -> (the code of `__init__`, __eq__, __hash__, __repr__)


def record(cls=None, /, *, frozen=False):
    """Make `cls` a record class; `@record(frozen=True)` an immutable one."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    names = []
    for base in reversed(cls.__mro__[1:]):
        names += [n for n in base.__dict__.get("__match_args__", ()) if n not in names]
    names += [n for n in cls.__dict__.get("__annotations__", {}) if n not in names]
    names = tuple(names)
    defaults = tuple(getattr(cls, n, _MISSING) for n in names)
    while defaults and defaults[0] is _MISSING:
        defaults = defaults[1:]
    if any(d is _MISSING for d in defaults):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")

    if names not in _SHARED:
        _SHARED[names] = (_init_code(names), *_methods(names))
    code, eq, hash_, repr_ = _SHARED[names]
    init = FunctionType(code, _INIT_GLOBALS, "__init__", defaults or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    methods = {"__init__": init, "__eq__": eq, "__hash__": hash_ if frozen else None,
               "__repr__": repr_}
    if frozen:
        methods.update(_frozen(cls, names))
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__match_args__ = names
    return cls


def _init_code(names):
    params = "".join(f", {n}" for n in names)
    body = "".join(f"    __set(self, {n!r}, {n})\n" for n in names) or "    pass\n"
    scope: dict = {}
    exec(f"def __init__(self{params}):\n{body}", {}, scope)
    return scope["__init__"].__code__


def _methods(names):
    """`__eq__`, `__hash__` and `__repr__` for the records with these
    fields, shared by all of them."""
    if len(names) > 1:
        key = attrgetter(*names)
    elif names:
        get = attrgetter(names[0])
        key = lambda self: (get(self),)
    else:
        key = lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    @recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    return __eq__, __hash__, __repr__


def _frozen(cls, names):
    """The standard data classes' rule: an instance of `cls` itself takes no new
    attribute, and no instance may set or delete a field."""
    def __setattr__(self, name, value):
        if self.__class__ is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if self.__class__ is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return {"__setattr__": __setattr__, "__delattr__": __delattr__}
