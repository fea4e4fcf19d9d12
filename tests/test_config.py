"""Scenario documents drawn from the config schema, run through the CLI.

Each document is valid, or has one value outside the schema: out of bound,
NaN or inf, of the wrong type or shape, or an unknown key at some level.
"""

import contextlib
import dataclasses
import io
import json
import math
import string
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from huskysim import cli
from huskysim.config import ConfigError
from huskysim.gait import GaitConfig
from huskysim.mpc import Command, MpcConfig
from huskysim.robot import LinkLengths, RobotParams
from huskysim.sim import Disturbance, Scenario, Terrain

JUNK = [None, "1", True, [1.0], {}]  # not a number, nor an array of numbers
UNKNOWN = st.text(string.ascii_lowercase, min_size=1, max_size=6).map(lambda k: "zz_" + k)


def valid_number(f, tp):
    default = f.default
    if tp is int:
        return st.integers(f.metadata["ge"] if f.metadata["ge"] is not None else -1000, 6)
    if default in (None, dataclasses.MISSING):
        return st.floats(0.05, 1.0)
    if default == 0.0:
        return st.floats(0.0, 0.05)
    return st.floats(0.5, 2.0).map(lambda k: default * k)


def invalid_number(f, tp):
    gt, ge = f.metadata["gt"], f.metadata["ge"]
    bad = [st.sampled_from([math.nan, math.inf, -math.inf, *JUNK])]
    if tp is int:
        bad.append(st.just(2.5))
    if gt is not None:
        bad.append(st.floats(0.0, 10.0).map(lambda d: gt - d))
    if ge is not None:
        bad.append(st.integers(ge - 6, ge - 1) if tp is int else st.floats(1e-3, 10.0).map(lambda d: ge - d))
    return st.one_of(bad)


def valid_array(f):
    shape = f.metadata["shape"]
    if f.default_factory is dataclasses.MISSING:
        return st.lists(st.floats(-40.0, 40.0), min_size=shape[0], max_size=shape[0])
    default = f.default_factory()
    return st.one_of(st.just(1.0), st.floats(0.5, 2.0)).map(lambda k: (default * k).tolist())


@st.composite
def invalid_array(draw, f):
    value = draw(valid_array(f))
    how = draw(st.sampled_from(["short", "scalar", "element"]))
    if how == "short":
        return value[:-1]
    if how == "scalar":
        return 1.0
    row = value if len(f.metadata["shape"]) == 1 else draw(st.sampled_from(value))
    row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([math.nan, math.inf, "x", True, None]))
    return value


def break_object(draw, parent, key):
    parent[key] = draw(st.sampled_from([1.0, [], "x", None]))


def add_unknown_key(draw, obj):
    obj[draw(UNKNOWN)] = 1


def config_doc(draw, cls, sites, skip=()):
    """A valid JSON object for the config class ``cls``; appends to ``sites``
    one function per place where a draw can put a value outside the schema."""
    doc = {}
    sites.append(lambda draw: add_unknown_key(draw, doc))
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key, tp = f.metadata["key"], hints[f.name]
        if key in skip:
            continue
        target = doc
        if "." in key:  # a member of a nested object
            head, key = key.split(".")
            if head not in doc:
                sites.append(lambda draw, head=head: break_object(draw, doc, head))
                sites.append(lambda draw, obj=doc.setdefault(head, {}): add_unknown_key(draw, obj))
            target = doc[head]
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if not required and not draw(st.booleans()):
            continue
        if dataclasses.is_dataclass(tp):
            target[key] = config_doc(draw, tp, sites)
            bad = st.sampled_from([1.0, [], "x", None])
        elif typing.get_origin(tp) is list:
            (item,) = typing.get_args(tp)
            target[key] = [config_doc(draw, item, sites) for _ in range(draw(st.integers(0, 2)))]
            bad = st.sampled_from([1.0, {}, "x", None])
        elif tp is np.ndarray:
            target[key] = draw(valid_array(f))
            bad = invalid_array(f)
        elif tp is bool:
            target[key] = draw(st.booleans())
            bad = st.sampled_from(["no", 0, 1, None, []])
        elif tp is str:
            choices = f.metadata["choices"]
            target[key] = draw(st.sampled_from(choices) if choices else st.text(string.ascii_letters, max_size=8))
            bad = st.sampled_from([1.0, None, True, *(["lava"] if choices else [])])
        else:
            target[key] = draw(valid_number(f, tp))
            bad = invalid_number(f, tp)
        sites.append(lambda draw, t=target, k=key, bad=bad: t.update({k: draw(bad)}))
    return doc


@st.composite
def documents(draw):
    """(document, whether it is outside the schema)."""
    sites = []
    doc = config_doc(draw, Scenario, sites, skip=("duration_s",))
    doc["duration_s"] = draw(st.floats(0.0, 0.05))
    for key, cls in cli.SECTIONS.items():
        if draw(st.booleans()):
            doc[key] = config_doc(draw, cls, sites)
            sites.append(lambda draw, key=key: break_object(draw, doc, key))
    rate = doc.get("mpc", {}).get("rate_hz")
    if "sim_dt_s" in doc or rate is not None:  # a tick must be a whole number of plant steps
        doc["sim_dt_s"] = 1.0 / ((rate or MpcConfig().rate_hz) * draw(st.integers(1, 40)))
    invalid = draw(st.booleans())
    if invalid:
        draw(st.sampled_from(sites))(draw)
    return doc, invalid


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_drawn_documents_fail_only_at_load(tmp_path_factory, case):
    doc, invalid = case
    base = tmp_path_factory.getbasetemp() / "drawn"
    base.mkdir(exist_ok=True)
    path = base / "doc.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(path), "--out", str(base / "out")])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    if invalid:
        assert code == 1, doc


PUSH = {"t_start": 1.0, "t_end": 1.5, "force": np.array([0.0, 40.0, 0.0])}

OUT_OF_BOUND = [
    (Terrain, {"kind": "lava"}, "kind"),
    (Terrain, {"kind": "beam"}, "width_m"),
    (Disturbance, {**PUSH, "t_end": 0.5}, "t_end_s"),
    (Disturbance, {**PUSH, "force": np.array([0.0, np.nan, 0.0])}, "force_n"),
    (Scenario, {"duration": -1.0}, "duration_s"),
    (Scenario, {"name": ".."}, "name"),
    (Command, {"height": 0.0}, "height_m"),
    (LinkLengths, {"thigh": -0.17}, "thigh"),
    (RobotParams, {"mass": 0.0}, "mass"),
    (RobotParams, {"thrust_dirs": np.zeros((4, 3))}, "thrust_dirs"),
    (MpcConfig, {"horizon": 0}, "horizon"),
    (MpcConfig, {"r_diag": np.ones(15)}, "r_diag"),
    (GaitConfig, {"t_swing": -0.15}, "t_swing_s"),
]


@pytest.mark.parametrize("cls, kwargs, key", OUT_OF_BOUND, ids=[f"{c.__name__}-{k}" for c, _, k in OUT_OF_BOUND])
def test_config_built_in_python_checks_itself(cls, kwargs, key):
    """A config with one value outside its bound or rules raises ConfigError
    naming the key when it is constructed, not when a run first reads it."""
    with pytest.raises(ConfigError, match=f"^{key}: "):
        cls(**kwargs)
