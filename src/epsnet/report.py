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

_MISSING = object()
_set_field = object.__setattr__


class _Field:
    __slots__ = ("default", "default_factory", "init", "compare")

    def __init__(self, default, default_factory, init, compare):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.compare = compare

    def value(self):
        """The field's default value (``_MISSING`` if it has none)."""
        if self.default_factory is not _MISSING:
            return self.default_factory()
        return self.default


def field(*, default=_MISSING, default_factory=_MISSING, init=True, compare=True):
    """Options of one record field: a default value, or a zero-argument
    factory called for each new record; ``init=False`` keeps it out of
    ``__init__`` (it then needs a default); ``compare=False`` keeps it out of
    ``==`` and ``hash``."""
    return _Field(default, default_factory, init, compare)


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

    A field's class-level value is its default, either plain or given by
    :func:`field`.  ``__init__`` takes the fields with ``init=True`` in
    order, by position or by name, sets every field, then calls
    ``__post_init__`` if the class has one (which may set fields with
    ``object.__setattr__``).  ``==`` holds between records of the same class
    whose compared fields are equal, and ``hash`` is the hash of the tuple
    of those fields.  ``cls._fields`` holds the field names in order.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    specs = {}
    for name in names:
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = field(default=spec)
        if spec.default is _MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        if not spec.init and spec.default is spec.default_factory is _MISSING:
            raise TypeError(f"{cls.__qualname__}.{name}: a field with init=False needs a default")
        specs[name] = spec
    params = tuple(n for n in names if specs[n].init)
    fixed = tuple((n, specs[n]) for n in names if not specs[n].init)
    compared = tuple(n for n in names if specs[n].compare)
    post_init = cls.__dict__.get("__post_init__")
    if len(compared) == 1:
        get = attrgetter(*compared)

        def key(self):
            return (get(self),)
    else:
        key = attrgetter(*compared)

    n_params, assign, finish = len(params), _assigner(params), None
    if fixed or post_init is not None:
        def finish(self):
            for name, spec in fixed:
                _set_field(self, name, spec.value())
            if post_init is not None:
                post_init(self)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n_params:
            args = _bind(cls, params, specs, args, kwargs)
        assign(self, args)
        if finish is not None:
            finish(self)

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


def _bind(cls, params, specs, args, kwargs) -> list:
    """The ``__init__`` arguments of a record in field order, defaults
    filled in; a call that Python would refuse raises a TypeError."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(params):
        raise TypeError(f"{where} takes {len(params)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(params, args))
    for name, value in kwargs.items():
        if name not in params:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        values[name] = value
    for name in params:
        if name not in values:
            values[name] = specs[name].value()
            if values[name] is _MISSING:
                raise TypeError(f"{where} missing required argument {name!r}")
    return [values[name] for name in params]


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
