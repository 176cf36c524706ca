"""Records, and reports as plain JSON.

A record is an immutable class whose value is its annotated fields, in
declaration order.  :func:`record` gives it ``__init__``, ``__eq__``,
``__hash__``, ``__repr__`` and a ``__setattr__`` that refuses assignment,
all closures over the field names: no method source is generated and run,
so a record class costs next to nothing to create at import.  A report
record's JSON is its fields, by name (:class:`Record`); :func:`plain_json`
turns any report value into plain JSON types.  This module never imports
numpy, so the Diophantine subcommands can write reports without it.
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter

_set_field = object.__setattr__


class _DataclassFields:
    """A record's ``__dataclass_fields__``, built when first read, so that
    ``dataclasses.fields`` and ``dataclasses.is_dataclass`` answer for records
    while a job that never asks does not import ``dataclasses``."""

    def __get__(self, instance, owner):
        import dataclasses

        fields = dataclasses.make_dataclass(owner.__name__, owner._fields).__dataclass_fields__
        owner.__dataclass_fields__ = fields
        return fields


_DATACLASS_FIELDS = _DataclassFields()


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields.

    A field's class-level value is its default.  ``__init__`` takes the
    fields in order, by position or by name, sets every field, then calls
    ``__post_init__`` if the class has one (which may set fields with
    ``object.__setattr__``).  ``==`` holds between records of the same class
    whose fields are equal, and ``hash`` is the hash of the tuple of the
    fields.  ``cls._fields`` holds the field names in order.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    if len(names) == 1:
        get = attrgetter(*names)

        def key(self):
            return (get(self),)
    else:
        key = attrgetter(*names)

    n_fields, assign = len(names), _assigner(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n_fields:
            args = _bind(cls, names, defaults, args, kwargs)
        assign(self, args)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = names
    cls.__dataclass_fields__ = _DATACLASS_FIELDS
    return cls


def _assigner(names):
    """``assign(self, values)``, which sets the fields ``names`` of a new
    record in order.  It is unrolled for up to three fields, as many as an
    expression node has: a differentiation builds thousands of nodes, and a
    loop would make each cost half as much again."""
    if len(names) == 1:
        (a,) = names

        def assign(self, values):
            _set_field(self, a, values[0])
    elif len(names) == 2:
        a, b = names

        def assign(self, values):
            _set_field(self, a, values[0])
            _set_field(self, b, values[1])
    elif len(names) == 3:
        a, b, c = names

        def assign(self, values):
            _set_field(self, a, values[0])
            _set_field(self, b, values[1])
            _set_field(self, c, values[2])
    else:
        def assign(self, values):
            for name, value in zip(names, values):
                _set_field(self, name, value)
    return assign


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The ``__init__`` arguments of a record in field order, defaults
    filled in; a call that Python would refuse raises a TypeError."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        values[name] = value
    for name in names:
        if name not in values:
            if name not in defaults:
                raise TypeError(f"{where} missing required argument {name!r}")
            values[name] = defaults[name]
    return [values[name] for name in names]


def plain_json(value):
    """Copy of a report value in plain JSON types, with non-finite floats
    written as the strings "inf", "-inf" and "nan".  A value with a
    ``to_json_dict`` method is written as that dict, which must itself be
    plain JSON."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {k: plain_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_json(v) for v in value]
    np = sys.modules.get("numpy")  # a numpy scalar implies numpy is loaded
    if np is not None and isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    return value


class Record:
    """Base of the report records whose JSON is their fields, by name."""

    def to_json_dict(self) -> dict:
        return {name: plain_json(getattr(self, name)) for name in self._fields}
