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

from huskysim import cli, sim
from huskysim.config import ConfigError
from huskysim.gait import GaitConfig
from huskysim.mpc import Command, MpcConfig
from huskysim.robot import LinkLengths, RobotParams
from huskysim.sim import Disturbance, Scenario, Terrain

JUNK = [None, "1", True, [1.0], {}]  # not a number, nor an array of numbers
UNKNOWN = st.text(string.ascii_lowercase, min_size=1, max_size=6).map(lambda k: "zz_" + k)


# the float settings that size a run's arrays: a value scaled by 10**k could ask for a log or
# a tick of more rows than the host can fill, so they stay near their defaults
SIZING = ("duration_s", "sim_dt_s", "rate_hz")


def valid_number(f, tp):
    """A valid value of the number setting f: an int in its range, or a float
    near its default; a float that sizes no array may also be its default
    times 10**k for k in [-300, 300]."""
    default = f.default
    if tp is int:
        return st.integers(f.metadata["ge"] if f.metadata["ge"] is not None else -1000, 6)
    if default in (None, dataclasses.MISSING):
        return st.floats(0.05, 1.0)
    if default == 0.0:
        return st.floats(0.0, 0.05)
    near = st.floats(0.5, 2.0).map(lambda k: default * k)
    if f.metadata["key"] in SIZING:
        return near
    return st.one_of(near, st.integers(-300, 300).map(lambda k: default * 10.0**k))


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
    if f.metadata["key"] == "thrust_dirs":  # RobotParams' rule: each row is a unit vector
        return st.just(default.tolist())
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
        elif tp is str:
            target[key] = draw(st.text(string.ascii_letters, max_size=8))
            bad = st.sampled_from([1.0, None, True])
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
    for dist in doc.get("disturbances", []):  # Disturbance's rule: a push ends after it starts
        dist["t_end_s"] = dist["t_start_s"] + draw(st.floats(0.05, 1.0))
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
    assert code in ((1,) if invalid else (0, 2)), doc


PUSH = {"t_start": 1.0, "t_end": 1.5, "force": np.array([0.0, 40.0, 0.0])}

OUT_OF_BOUND = [
    (Terrain, {"width": -0.1}, "width_m"),
    (Disturbance, {**PUSH, "t_end": 0.5}, "t_end_s"),
    (Disturbance, {**PUSH, "force": np.array([0.0, np.nan, 0.0])}, "force_n"),
    (Scenario, {"duration": -1.0}, "duration_s"),
    (Command, {"height": 0.0}, "height_m"),
    (LinkLengths, {"thigh": -0.17}, "thigh"),
    (RobotParams, {"mass": 0.0}, "mass"),
    (RobotParams, {"thrust_dirs": np.zeros((4, 3))}, "thrust_dirs"),
    (MpcConfig, {"horizon": 0}, "horizon"),
    (MpcConfig, {"r_diag": np.ones(15)}, "r_diag"),
    (GaitConfig, {"t_swing": -0.15}, "t_swing_s"),
]


WRONG_TYPE = [
    (MpcConfig, {"horizon": 2.5}, "horizon"),
    (MpcConfig, {"horizon": True}, "horizon"),
    (Scenario, {"name": None}, "name"),
    (Scenario, {"terrain": None}, "terrain"),
]


@pytest.mark.parametrize("cls, kwargs, key", OUT_OF_BOUND + WRONG_TYPE,
                         ids=[f"{c.__name__}-{k}" for c, _, k in OUT_OF_BOUND]
                         + [f"{c.__name__}-{k}-{v!r}" for c, kw, k in WRONG_TYPE for v in kw.values()])
def test_config_built_in_python_checks_itself(cls, kwargs, key):
    """A config with one value of the wrong type, or outside its bound or rules,
    raises ConfigError naming the key when it is constructed, as a document's
    value does at load, not when a run first reads it."""
    with pytest.raises(ConfigError, match=f"^{key}: "):
        cls(**kwargs)


def test_assigning_a_setting_checks_the_config():
    """A setting assigned on a built config is checked as at construction: a
    value of the wrong type or outside its bound raises ConfigError naming the
    key, and the config keeps its valid value, so the run it is given still runs."""
    scenario, params, mpc_cfg, gait_cfg = cli.load_config("push_with_thrust")
    (push,) = scenario.disturbances
    with pytest.raises(ConfigError, match="^horizon: "):
        mpc_cfg.horizon = 0
    with pytest.raises(ConfigError, match="^horizon: "):
        mpc_cfg.horizon = 2.5  # a wrong type, which the run would meet as a TypeError
    with pytest.raises(ConfigError, match="^t_end_s: "):
        push.t_end = push.t_start  # a rule that spans fields: a push ends after it starts
    assert mpc_cfg.horizon == 5 and push.t_end == 1.5
    scenario.duration = 0.05
    log, failure = sim.run(scenario, params, mpc_cfg, gait_cfg)
    assert failure is None and log.n == 50


ARRAY_SETTINGS = [(cls, f.name) for cls in (Command, Disturbance, MpcConfig, RobotParams)
                  for f in dataclasses.fields(cls) if typing.get_type_hints(cls)[f.name] is np.ndarray]


@pytest.mark.parametrize("cls, name", ARRAY_SETTINGS, ids=[f"{c.__name__}-{n}" for c, n in ARRAY_SETTINGS])
def test_an_in_place_edit_of_an_array_setting_raises(cls, name):
    """An array setting is held as a read-only copy: writing NaN into it raises
    ValueError at once, not deep inside a run, and leaves the value unchanged.
    The caller's array, given when built or assigned, stays its own and writable."""
    default = cls(**({"t_start": 0.0, "t_end": 1.0, "force": np.zeros(3)} if cls is Disturbance else {}))
    before = getattr(default, name)
    first = (0,) * before.ndim
    built_from, assigned = before.copy(), before.copy()
    cfg = dataclasses.replace(default, **{name: built_from})
    with pytest.raises(ValueError, match="read-only"):
        getattr(cfg, name)[first] = np.nan
    assert np.array_equal(getattr(cfg, name), before)
    built_from[first] = np.nan
    setattr(cfg, name, assigned)
    assigned[first] = np.nan
    assert np.array_equal(getattr(cfg, name), before)


def test_assigning_the_inertia_drops_its_cached_inverse():
    params = RobotParams()
    assert np.array_equal(params.inertia_inv, np.linalg.inv(params.inertia_body))
    params.inertia_body = np.diag([0.3, 0.4, 0.5])
    assert np.array_equal(params.inertia_inv, np.diag([1 / 0.3, 1 / 0.4, 1 / 0.5]))
    with pytest.raises(ConfigError, match="^inertia_body: "):
        params.inertia_body = -np.eye(3)
    assert np.array_equal(params.inertia_inv, np.diag([1 / 0.3, 1 / 0.4, 1 / 0.5]))
