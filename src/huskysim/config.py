"""Declarative config schema: each setting is declared once, on the dataclass
field it fills, with its JSON key, default, shape and bound.

A field's annotation is its type: float, int, str, np.ndarray (of the
declared shape), a config dataclass (a nested JSON object) or a list of one
(an array of objects). A config checks itself when it is constructed, and
again when one of its fields is assigned: ``check`` tests the type, shape and
bound of each of its settings, whether from a document or from Python, then
the few rules that span them. ``load`` checks a JSON object's keys alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import typing

import numpy as np


class ConfigError(ValueError):
    """A config value outside its declared key, type, shape or bound."""


@contextlib.contextmanager
def sized_by(key):
    """Raise a size that numpy refuses, which it does before it allocates
    anything, as a ConfigError naming ``key``, the setting that sized it."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{key}: the run is too large to allocate ({exc})") from exc


def setting(key, default=dataclasses.MISSING, *, shape=(), gt=None, ge=None):
    """A dataclass field read from the JSON key ``key``.

    A callable default (a config class, ``list``) makes each instance's
    default; a list default becomes a float array. Numbers must be finite,
    and > gt or >= ge (elementwise) when given.
    """
    if callable(default):
        kwargs = {"default_factory": default}
    elif isinstance(default, list):
        kwargs = {"default_factory": lambda: np.array(default, dtype=float)}
    else:
        kwargs = {"default": default}
    meta = {"key": key, "shape": shape, "gt": gt, "ge": ge}
    return dataclasses.field(metadata=meta, **kwargs)


class Config:
    """Base of the config dataclasses: a config with a value outside its
    declared type, shape, bound or rules raises ConfigError, naming the key,
    when built, and when one of its fields is assigned, which keeps the old
    value on an error and else drops the values cached from the config
    (cached_property). An array setting is held as a read-only copy, so an
    in-place edit raises ValueError; an in-place edit of the ``disturbances``
    list is not checked."""

    def __post_init__(self):
        check(self)

    def __setattr__(self, name, value):
        if name in self.__dict__:  # a field of the built config: a copy holding value checks it, then lends its value
            value = getattr(dataclasses.replace(self, **{name: value}), name)
            for key in [k for k in vars(self) if isinstance(getattr(type(self), k, None), functools.cached_property)]:
                del self.__dict__[key]
        super().__setattr__(name, value)

    def rules(self):
        """(key, holds, what must hold) for each rule that spans fields."""
        return ()


@functools.cache
def _schema(cls):
    """JSON key -> (type, field) of each setting of ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.metadata["key"]: (hints[f.name], f) for f in dataclasses.fields(cls) if "key" in f.metadata}


def _join(path, key):
    return f"{path}.{key}" if path else key


def _fail(where, what, value=dataclasses.MISSING):
    """Raise the one-line error for ``where``, quoting the offending value."""
    got = "" if value is dataclasses.MISSING else f", got {value!r:.60}"
    raise ConfigError(f"{where or 'document'}: {what}{got}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, "must be a number", value)
    try:
        return float(value)
    except OverflowError:
        _fail(where, "is out of range")


def _numbers(value, shape, where, depth=0):
    """Nested lists of numbers of the given shape, as floats."""
    if depth == len(shape):
        return _number(value, where)
    if not isinstance(value, list) or len(value) != shape[depth]:
        _fail(where, f"must be an array of shape {shape}", value)
    return [_numbers(v, shape, where, depth + 1) for v in value]


def _value(tp, value, meta, where):
    """``value`` as the setting of type ``tp`` holds it, once it passes the type,
    shape and bound tests of ``meta``: an array as a read-only float copy."""
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            _fail(where, "must be an array", value)
        (item,) = typing.get_args(tp)
        return [_value(item, v, meta, f"{where}[{i}]") for i, v in enumerate(value)]
    if dataclasses.is_dataclass(tp):
        return value if isinstance(value, tp) else load(tp, value, where)
    if tp is str:
        if not isinstance(value, str):
            _fail(where, "must be a string", value)
        return value
    if isinstance(value, (np.ndarray, np.generic)):  # tested as the JSON numbers it holds
        value = value.tolist()
    number = _numbers(value, meta["shape"], where)
    if tp is int:
        if not number.is_integer():
            _fail(where, "must be an integer", value)
        number = int(value)
    arr = np.array(number, dtype=float)
    if not np.isfinite(arr).all():
        _fail(where, "must be finite", number)
    if meta["gt"] is not None and not (arr > meta["gt"]).all():
        _fail(where, f"must be > {meta['gt']}", number)
    if meta["ge"] is not None and not (arr >= meta["ge"]).all():
        _fail(where, f"must be >= {meta['ge']}", number)
    if tp is not np.ndarray:
        return number
    arr.flags.writeable = False
    return arr


def load(cls, doc, path=""):
    """The config dataclass ``cls`` built from its JSON object ``doc``.

    Checks the keys; constructing ``cls`` checks each value. An error names
    its key by its path in the document from ``path``.
    """
    if not isinstance(doc, dict):
        _fail(path, "must be an object", doc)
    schema = _schema(cls)
    for key in doc:
        if key not in schema:
            _fail(path, f"unknown key {key!r}")
    for key, (_, f) in schema.items():
        if key not in doc and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            _fail(_join(path, key), "is required")
    try:
        return cls(**{f.name: doc[key] for key, (_, f) in schema.items() if key in doc})
    except ConfigError as exc:  # a value or rule of the object's own fields
        raise ConfigError(_join(path, str(exc))) from None


def check(obj):
    """Check each setting of ``obj`` by its type, shape and bound, holding
    the value that ``_value`` returns, then the rules that span its fields;
    raises ConfigError at the first failure."""
    for key, (tp, f) in _schema(type(obj)).items():
        obj.__dict__[f.name] = _value(tp, getattr(obj, f.name), f.metadata, key)
    for key, holds, what in obj.rules():
        if not holds:
            _fail(key, what)
