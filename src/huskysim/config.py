"""Declarative config schema: each setting is declared once, on the dataclass
field it fills, with its JSON key, default, shape and bound.

A field's annotation is its type: float, int, str, np.ndarray (of the
declared shape), a config dataclass (a nested JSON object) or a list of one
(an array of objects). ``load`` builds a config from its JSON object and
rejects unknown keys, wrong types and wrong shapes. A config checks itself
when it is constructed, and again when one of its fields is assigned:
``check`` runs every declared bound of its own fields, then the few rules that
span them; a nested config was checked when it was made.
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
    declared bound or rules raises ConfigError, naming the key, when built, and
    when one of its fields is assigned, which keeps the old value on an error and
    else drops the values cached from the config (cached_property). An array
    setting is held as a read-only copy, so an in-place edit raises ValueError;
    an in-place edit of the ``disturbances`` list is not checked."""

    def __post_init__(self):
        check(self)
        for tp, f in _schema(type(self)).values():
            if tp is np.ndarray:
                self.__dict__[f.name] = value = np.array(getattr(self, f.name), dtype=float)
                value.flags.writeable = False

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
    if isinstance(value, np.ndarray):
        value = value.tolist()
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


def _parse(tp, value, field, where):
    if dataclasses.is_dataclass(tp):
        return load(tp, value, where)
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            _fail(where, "must be an array", value)
        (item,) = typing.get_args(tp)
        return [load(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    if tp is np.ndarray:
        return np.array(_numbers(value, field.metadata["shape"], where), dtype=float)
    if tp is str:
        if not isinstance(value, str):
            _fail(where, "must be a string", value)
        return value
    number = _number(value, where)
    if tp is int:
        if not number.is_integer():
            _fail(where, "must be an integer", value)
        return int(value)
    return number


def load(cls, doc, path=""):
    """The config dataclass ``cls`` read from its JSON object ``doc``.

    Checks keys, types and shapes; constructing ``cls`` tests the bounds. An
    error names its key by its path in the document from ``path``.
    """
    if not isinstance(doc, dict):
        _fail(path, "must be an object", doc)
    schema = _schema(cls)
    for key in doc:
        if key not in schema:
            _fail(path, f"unknown key {key!r}")
    kwargs = {}
    for key, (tp, f) in schema.items():
        if key in doc:
            kwargs[f.name] = _parse(tp, doc[key], f, _join(path, key))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            _fail(_join(path, key), "is required")
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # a bound or rule of the object's own fields
        raise ConfigError(_join(path, str(exc))) from None


def check(obj):
    """Check each number and array setting of ``obj`` against its declared
    bound, then the rules that span its fields; raises ConfigError at the
    first failure."""
    for key, (tp, f) in _schema(type(obj)).items():
        value, meta = getattr(obj, f.name), f.metadata
        if tp in (float, int, np.ndarray):
            arr = np.asarray(value, dtype=float)
            if arr.shape != meta["shape"]:
                _fail(key, f"must have shape {meta['shape']}, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                _fail(key, "must be finite", value)
            if meta["gt"] is not None and not (arr > meta["gt"]).all():
                _fail(key, f"must be > {meta['gt']}", value)
            if meta["ge"] is not None and not (arr >= meta["ge"]).all():
                _fail(key, f"must be >= {meta['ge']}", value)
    for key, holds, what in obj.rules():
        if not holds:
            _fail(key, what)
