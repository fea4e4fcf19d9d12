import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import Call, calls, load_bundled, read_summary, recording
from huskysim import cli, config, sim
from huskysim.sim import Scenario, SimLog

col = SimLog.HEADER.index


def test_beam_walk_run_artifacts(bundled_runs):
    code, out = bundled_runs("beam_walk")[:2]
    assert code == 0
    assert (out / "log.csv").exists()
    assert (out / "summary.json").exists()
    for name in ("position.svg", "attitude_thrust.svg", "friction.svg"):
        assert (out / "plots" / name).exists()
    summary = read_summary(out)
    assert summary["outcome"] == "success"
    assert max(summary["peak_thrust_n"]) <= 20.0


def test_push_without_thrusters_exits_2(bundled_runs):
    code, out = bundled_runs("push_no_thrust")[:2]
    assert code == 2
    summary = read_summary(out)
    assert summary["outcome"] == "failure"
    assert summary["failure"]["kind"] in ("RollDivergence", "HeightCollapse", "Slip", "BeamMiss")
    assert summary["failure"]["t_s"] < 3.0


def test_nonexistent_config_exits_1(capsys, tmp_path):
    code = cli.main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{", "[1, 2]", "1" * 5000], ids=["directory", "truncated", "array", "long_int"])
def test_unreadable_config_exits_1(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_invalid_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"terrain": {"kind": "lava"}}')
    code = cli.main(["run", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "lava" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, key",
    [
        ('{"mpc": {"rate_hz": 0}}', "rate_hz"),
        ('{"mpc": {"rate_hz": -100}}', "rate_hz"),
        ('{"mpc": {"rate_hz": Infinity}}', "rate_hz"),
        ('{"mpc": {"rate_hz": NaN}}', "rate_hz"),
        ('{"duration_s": NaN}', "duration_s"),
        ('{"duration_s": Infinity}', "duration_s"),
        ('{"sim_dt_s": NaN}', "sim_dt_s"),
        ('{"sim_dt_s": Infinity}', "sim_dt_s"),
        ('{"mpc": {"dt_s": NaN}}', "dt_s"),
        ('{"gait": {"t_stance_s": NaN}}', "t_stance_s"),
        ('{"gait": {"t_stance_s": 0}}', "t_stance_s"),
        ('{"gait": {"t_swing_s": -0.1}}', "t_swing_s"),
    ],
    ids=["rate_zero", "rate_negative", "rate_inf", "rate_nan", "duration_nan", "duration_inf",
         "sim_dt_nan", "sim_dt_inf", "mpc_dt_nan", "t_stance_nan", "t_stance_zero", "t_swing_negative"],
)
def test_bad_timing_value_exits_1(tmp_path, capsys, doc, key):
    assert_one_error_line(tmp_path, capsys, doc, key)


@pytest.mark.parametrize(
    "doc, key",
    [
        ('{"command": {"height_m": -1}}', "height_m"),
        ('{"command": {"v_d_mps": [0.2]}}', "v_d_mps"),
        ('{"disturbances": [{"t_start_s": 0.1, "t_end_s": 0.2, "force_n": [0, 40]}]}', "force_n"),
        ('{"gait": {"apex_height_m": NaN}}', "apex_height_m"),
        ('{"mpc": {"u_t_max_n": -5}}', "u_t_max_n"),
        ('{"command": {"yaw_rate_rps": NaN}}', "yaw_rate_rps"),
        ('{"gait": {"raibert_gain_s": Infinity}}', "raibert_gain_s"),
    ],
    ids=["height_negative", "v_d_short", "force_short", "apex_nan", "thrust_cap_negative",
         "yaw_rate_nan", "raibert_gain_inf"],
)
def test_bad_command_or_limit_exits_1(tmp_path, capsys, doc, key):
    assert_one_error_line(tmp_path, capsys, doc, key)


@pytest.mark.parametrize(
    "doc, key",
    [
        ('{"robot": {"mass": NaN}}', "robot.mass"),
        ('{"robot": {"thruster_knee_offset": NaN}}', "robot.thruster_knee_offset"),
        ('{"robot": {"gravity": -9.81}}', "robot.gravity"),
        ('{"robot": {"link_lengths": {"thigh": -0.17}}}', "robot.link_lengths.thigh"),
        ('{"robot": {"joint_limits": [[-0.8, 0.8]]}}', "robot.joint_limits"),
        ('{"robot": {"mu_s": 0.5}}', "mu_s"),
        ('{"mpc": {"q_diag": [NaN, 400, 100, 100, 400, 800, 1, 1, 1, 10, 40, 20, 0]}}', "mpc.q_diag"),
        ('{"mpc": {"horizon": 2.7}}', "mpc.horizon"),
        ('{"mpc": {"horizon": true}}', "mpc.horizon"),
        ('{"mpc": {"thrusters_enabled": false}}', "mpc: unknown key 'thrusters_enabled'"),
        ('{"mpc": {"mu": 0.3535}}', "mpc: unknown key 'mu'"),
        ('{"terrain": {"kind": "beam", "width_m": 0.1, "height_m": NaN}}', "terrain.height_m"),
        ('{"mu_real": NaN}', "mu_real"),
        ('{"mu_real": -1}', "mu_real"),
        ('{"seed": 0}', "seed"),
        ('{"thrusters_enabled": false}', "thrusters_enabled"),
        ('{"gait": {"lateral_clamp": {"width_m": 0.1}}}', "lateral_clamp"),
        ('{"mpc": {"horizn": 5}}', "horizn"),
        ('{"gait": {"t_stanse_s": 0.3}}', "t_stanse_s"),
        ('{"command": {"speed": 0.2}}', "speed"),
        ('{"duraton_s": 1.0}', "duraton_s"),
        ('{"gait": {"foot_margin_m": -0.01}}', "gait.foot_margin_m"),
        ('{"name": ""}', "name"),
        ('{"name": "."}', "name"),
        ('{"name": ".."}', "name"),
        ('{"name": "../../escaped"}', "name"),
        ('{"name": "runs\\\\escaped"}', "name"),
        ('{"name": "nul\\u0000byte"}', "name"),
        ('{"sim_dt_s": 0.0015}', "mpc.rate_hz"),
        ('{"mpc": {"rate_hz": 2000}}', "mpc.rate_hz"),
        ('{"mpc": {"rate_hz": 30}}', "mpc.rate_hz"),
    ],
    ids=["mass_nan", "knee_offset_nan", "gravity_negative", "thigh_negative", "joint_limits_one_row",
         "mu_s_unknown", "q_diag_nan", "horizon_fraction", "horizon_bool", "thrusters_unknown", "mu_unknown",
         "beam_height_nan", "mu_real_nan", "mu_real_negative", "seed_unknown", "thrusters_top_level_unknown",
         "lateral_clamp_unknown", "horizn_unknown", "t_stanse_unknown", "speed_unknown", "duraton_unknown",
         "foot_margin_negative", "name_empty", "name_dot", "name_dotdot", "name_parent_path",
         "name_backslash", "name_nul", "sim_dt_1_5ms_at_100hz", "rate_2000hz_at_1ms",
         "rate_30hz_at_1ms"],
)
def test_invalid_setting_exits_1(tmp_path, capsys, doc, key):
    """Values outside a setting's declared type, shape or bound, and unknown keys,
    fail at load: exit 1 and one error line, never a traceback or a simulated fall."""
    assert_one_error_line(tmp_path, capsys, doc, key)


@pytest.mark.parametrize("doc, key", [('{"duration_s": 1e300}', "duration_s"),
                                      ('{"mpc": {"horizon": 1000000000}}', "mpc.horizon")],
                         ids=["duration_1e300", "horizon_1e9"])
def test_run_too_large_to_allocate_exits_1(tmp_path, capsys, doc, key):
    """A log of 1e303 rows, or a controller of 1e9 horizon steps, is a size
    that numpy refuses before it allocates anything: the run names its key."""
    assert_one_error_line(tmp_path, capsys, doc, key)


@pytest.mark.parametrize("link, length", [("thigh", 1e200), ("thigh", 1e300), ("shank", 1e155)])
def test_leg_reach_that_overflows_is_a_numerical_failure(tmp_path, capsys, link, length):
    """A leg whose reach squared overflows a Python float, which raises where
    numpy would give inf, ends the run at t = 0 as a NumericalFailure with
    nothing on stderr, and a detail that names the exception, not its args tuple."""
    (tmp_path / "long.json").write_text(json.dumps({"robot": {"link_lengths": {link: length}}}))
    assert cli.main(["run", str(tmp_path / "long.json"), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert err == "" and "NumericalFailure at t=0.000s" in out
    failure = read_summary(tmp_path / "out")["failure"]
    assert failure["kind"] == sim.NUMERICAL_FAILURE
    assert "OverflowError" in failure["detail"] and "(34," not in failure["detail"]


def assert_one_error_line(tmp_path, capsys, doc, key):
    """The document exits 1 with one error: line naming key, and leaves no output directory."""
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code = cli.main(["run", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and key in err[0]
    assert not (tmp_path / "o").exists()


def test_summary_recomputed_from_log_matches(bundled_runs):
    code, out = bundled_runs("push_with_thrust")[:2]
    assert code == 0
    summary = read_summary(out)
    data = SimLog.from_csv(out / "log.csv").as_array()
    t = data[:, col("t")]
    roll = data[:, col("roll")]
    assert abs(summary["max_abs_roll_rad"] - np.abs(roll).max()) < 1e-9
    py = data[:, col("py")]
    assert abs(summary["max_abs_lateral_deviation_m"] - np.abs(py - py[0]).max()) < 1e-9
    thr = data[:, col("thrust0") : col("thrust0") + 4]
    assert np.abs(np.array(summary["peak_thrust_n"]) - thr.max(axis=0)).max() < 1e-9
    ratios = data[:, col("ratio0") : col("ratio0") + 4]
    assert np.abs(np.array(summary["peak_friction_ratio"]) - ratios.max(axis=0)).max() < 1e-9
    px = data[:, col("px")]
    v_mean = (px[-1] - px[0]) / (t[-1] - t[0])
    assert abs(summary["mean_forward_speed_mps"] - v_mean) < 1e-9


def test_empty_log_summary_has_every_key(bundled_runs, tmp_path, capsys):
    """A body commanded 1e300 m up overflows the first control tick, which ends
    the run as a NumericalFailure at t = 0 with no log rows; its summary has the
    keys of a non-empty run, in the same order, with zero metrics and no
    recovery."""
    doc = load_bundled("push_with_thrust")
    doc["mu_real"] = 0.3
    doc["command"]["height_m"] = 1e300
    (tmp_path / "high.json").write_text(json.dumps(doc))
    assert cli.main(["run", str(tmp_path / "high.json"), "--out", str(tmp_path / "out")]) == 2
    assert "NumericalFailure at t=0.000s" in capsys.readouterr().out
    assert SimLog.from_csv(tmp_path / "out" / "log.csv").n == 0
    summary = read_summary(tmp_path / "out")
    assert summary["failure"]["kind"] == sim.NUMERICAL_FAILURE and summary["failure"]["t_s"] == 0.0
    assert list(summary) == list(read_summary(bundled_runs("push_with_thrust").out))
    for key in ("max_abs_roll_rad", "max_abs_lateral_deviation_m", "mean_forward_speed_mps"):
        assert summary[key] == 0.0
    assert summary["peak_thrust_n"] == summary["peak_friction_ratio"] == [0.0] * 4
    assert summary["peak_thrust_within_soft_target"] is True and summary["recovery_time_s"] is None
    assert summary["mu_limit"] == 0.3


def test_compare_identical_runs(bundled_runs, capsys, tmp_path):
    out = bundled_runs("push_with_thrust").out
    code = cli.main(["compare", str(out / "summary.json"), str(out / "summary.json")])
    assert code == 0
    captured = capsys.readouterr().out
    diff = json.loads(captured[captured.index("{") :])
    assert all(
        np.allclose(v, 0.0) for v in diff["deltas"].values()
    )


def test_compare_with_vs_without_thrust(bundled_runs, capsys):
    out_with = bundled_runs("push_with_thrust").out
    out_without = bundled_runs("push_no_thrust").out
    code = cli.main(
        ["compare", str(out_with / "summary.json"), str(out_without / "summary.json")]
    )
    assert code == 0
    captured = capsys.readouterr().out
    diff = json.loads(captured[captured.index("{") :])
    assert diff["recovered"]["a"] is True
    assert diff["recovered"]["b"] is False


def test_compare_schema_mismatch(tmp_path, bundled_runs, capsys):
    out = bundled_runs("push_with_thrust").out
    other = tmp_path / "old.json"
    doc = read_summary(out)
    doc["schema_version"] = "huskysim-summary/0"
    other.write_text(json.dumps(doc))
    code = cli.main(["compare", str(out / "summary.json"), str(other)])
    assert code == 1
    err = capsys.readouterr().err
    assert cli.SUMMARY_SCHEMA in err and "huskysim-summary/0" in err


@pytest.mark.parametrize(
    "doc, what",
    [({}, "'scenario'"), ([], "object"), (dict.fromkeys(cli.COMPARED, "x"), "number")],
    ids=["empty_object", "array", "string_metrics"],
)
def test_compare_malformed_summary_exits_1(tmp_path, capsys, doc, what):
    bad = tmp_path / "summary.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["compare", str(bad), str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and what in err[0]


def test_out_dir_env_override(tmp_path, monkeypatch):
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 0.1
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(doc))
    dest = tmp_path / "env_out"
    monkeypatch.setenv("HUSKY_OUT_DIR", str(dest))
    code = cli.main(["run", str(cfg)])
    assert code == 0
    assert (dest / "log.csv").exists()


def test_sweep_runs_multiple_configs(tmp_path):
    paths = []
    for i, v in enumerate((0.0, 0.1)):
        doc = load_bundled("flat_trot")
        doc["name"] = f"mini{i}"
        doc["duration_s"] = 0.2
        doc["command"]["v_d_mps"] = [v, 0.0, 0.0]
        p = tmp_path / f"mini{i}.json"
        p.write_text(json.dumps(doc))
        paths.append(str(p))
    out = tmp_path / "sweep"
    code = cli.main(["run", *paths, "--out", str(out)])
    assert code == 0
    assert (out / "mini0" / "log.csv").exists()
    assert (out / "mini1" / "log.csv").exists()


def test_duplicate_config_stems_exit_1_before_any_run(tmp_path, capsys):
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 0.05
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "flat.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli.main(["run", str(tmp_path / "a" / "flat.json"), str(tmp_path / "b" / "flat.json"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'flat'" in err[0]
    assert not out.exists()


def test_two_configs_of_one_name_exit_1_before_any_run(tmp_path, monkeypatch, capsys):
    """Without --out or HUSKY_OUT_DIR, two configs that leave the name at its
    default would both write runs/scenario: rejected before either runs."""
    doc = load_bundled("flat_trot")
    del doc["name"]
    doc["duration_s"] = 0.05
    (tmp_path / "sub").mkdir()
    for path in ("a.json", "sub/b.json"):
        (tmp_path / path).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HUSKY_OUT_DIR", raising=False)
    assert cli.main(["run", "a.json", "sub/b.json"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'scenario'" in err[0]
    assert not (tmp_path / "runs").exists()


def test_invalid_config_after_a_valid_one_runs_neither(tmp_path, capsys):
    """Every config is loaded before the first run, so a valid config listed
    before an invalid one writes nothing."""
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 0.05
    (tmp_path / "good.json").write_text(json.dumps(doc))
    doc["duration_s"] = -1.0
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path / "good.json"), str(tmp_path / "bad.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "duration_s" in err[0]
    assert not out.exists()


def test_each_config_is_checked_once_and_never_inside_the_run(tmp_path):
    """A CLI run checks each config object, nested ones included, exactly
    once, when it is built; sim.run checks none."""
    doc = load_bundled("push_with_thrust")
    doc["duration_s"] = 0.05
    (tmp_path / "push.json").write_text(json.dumps(doc))
    with recording((config, "check"), (sim, "run"), (cli, "run")) as events:
        assert cli.main(["run", str(tmp_path / "push.json"), "--out", str(tmp_path / "out")]) == 0
    checked, inside = [], False
    for event in events:
        if event.name == "run":
            inside = isinstance(event, Call)
        elif isinstance(event, Call):
            assert not inside, f"{type(event.args[0]).__name__} checked inside sim.run"
            checked.append(event.args[0])
    (scenario, params, mpc_cfg, gait_cfg), = (call.args for call in calls(events, "run"))
    tree = [scenario, scenario.terrain, scenario.command, *scenario.disturbances,
            params, params.link_lengths, mpc_cfg, gait_cfg]
    assert len(scenario.disturbances) == 1
    assert sorted(map(id, checked)) == sorted(map(id, tree))


# beam_walk with the Husky beta robot, gait, controller and friction written out as literals
BEAM_WALK_STATED = {
    "name": "beam_walk",
    "sim_dt_s": 0.001,
    "terrain": {"kind": "beam", "width_m": 0.1, "height_m": 0.1, "centerline_y_m": 0.0},
    "disturbances": [],
    "command": {"v_d_mps": [0.2, 0.0, 0.0], "yaw_rate_rps": 0.0, "height_m": 0.2},
    "mu_real": 0.5,
    "gait": {"t_stance_s": 0.3, "t_swing_s": 0.15, "raibert_gain_s": 0.03, "apex_height_m": 0.05,
             "foot_margin_m": 0.01},
    "mpc": {"horizon": 5, "dt_s": 0.06, "rate_hz": 100, "u_t_max_n": 20.0,
            "q_diag": [300, 300, 60, 100, 200, 800, 15, 8, 2, 20, 800, 300, 0]},
    "robot": {"hip_offsets": [[0.15, 0.1, 0.08], [0.15, -0.1, 0.08], [-0.15, 0.1, 0.08], [-0.15, -0.1, 0.08]],
              "inertia_body": [[0.15, 0, 0], [0, 0.2, 0], [0, 0, 0.22]]},
}


def test_document_without_friction_keys_runs_as_bundled(tmp_path):
    """The defaults are the Husky beta that every bundled scenario runs: the
    stripped bundled file and the same run with every value written out give
    the same log."""
    bare = load_bundled("beam_walk")
    bare["duration_s"] = 0.3
    stated = dict(BEAM_WALK_STATED, duration_s=0.3)
    for name, doc in (("stated", stated), ("bare", bare)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert cli.main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "bare" / "log.csv").read_bytes() == (tmp_path / "stated" / "log.csv").read_bytes()


def keys_at_default(cls, doc, path=""):
    """The leaf keys of ``doc``, a JSON object of the config class ``cls``, that state their field's default."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key, tp = f.metadata["key"], hints[f.name]
        if key not in doc:
            continue
        where = f"{path}{key}"
        if dataclasses.is_dataclass(tp):
            yield from keys_at_default(tp, doc[key], where + ".")
        elif typing.get_origin(tp) is list:
            for i, item in enumerate(doc[key]):
                yield from keys_at_default(typing.get_args(tp)[0], item, f"{where}[{i}].")
        elif f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
            default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
            if np.array_equal(doc[key], default):
                yield where


def assert_schema_keys(cls, doc, path):
    """``doc`` names exactly the JSON keys of the config class ``cls``, and so on
    down each nested config object it holds."""
    hints = typing.get_type_hints(cls)
    types = {f.metadata["key"]: hints[f.name] for f in dataclasses.fields(cls)}
    assert sorted(doc) == sorted(types), path
    for key, tp in types.items():
        if dataclasses.is_dataclass(tp):
            assert_schema_keys(tp, doc[key], f"{path}.{key}")


def test_readme_schema_block_names_every_key():
    """README's "full schema, at its defaults" block, with its // and /* */
    comments stripped, is a JSON document with exactly the keys config.load
    accepts at each level."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The full schema, at its defaults:")[1].split("```jsonc\n")[1].split("```")[0]
    doc = json.loads(re.sub(r"/\*.*?\*/|//[^\n]*", "", block, flags=re.S))
    for key, cls in cli.SECTIONS.items():
        assert_schema_keys(cls, doc.pop(key), key)
    assert_schema_keys(Scenario, doc, "document")


@pytest.mark.parametrize("name", ["beam_walk", "flat_trot", "push_no_thrust", "push_with_thrust"])
def test_bundled_files_state_only_what_differs_from_the_defaults(name):
    """sim_dt_s and mpc.rate_hz stay at their defaults in every bundled file:
    perfbench/run.py reads both from the raw document to time a run."""
    doc = load_bundled(name)
    sections = {key: doc.pop(key) for key in cli.SECTIONS if key in doc}
    stated = [*keys_at_default(Scenario, doc)]
    for key, cls in cli.SECTIONS.items():
        stated += keys_at_default(cls, sections.get(key, {}), key + ".")
    assert sorted(stated) == ["mpc.rate_hz", "sim_dt_s"]


def test_non_finite_plant_state_is_a_numerical_failure(tmp_path):
    """Two valid 1e308 N pushes overflow to inf when summed; the run ends as a
    named failure, with only finite rows in its log."""
    doc = load_bundled("push_with_thrust")
    doc["duration_s"] = 1.3
    doc["disturbances"] = [{"t_start_s": 1.0, "t_end_s": 1.2, "force_n": [0.0, 0.0, 1e308]}] * 2
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    assert cli.main(["run", str(tmp_path / "huge.json"), "--out", str(tmp_path / "out")]) == 2
    assert read_summary(tmp_path / "out")["failure"]["kind"] == "NumericalFailure"
    log = (tmp_path / "out" / "log.csv").read_text().lower()
    assert "inf" not in log and "nan" not in log


def test_state_that_swamps_the_qp_hessian_is_a_numerical_failure(tmp_path, capsys):
    """A 1e100 N push in only the last plant step of the tick that ends at
    0.35 s leaves a finite state so far out of range that the next tick's P,
    positive definite by construction, fails to factor."""
    doc = {
        "name": "probe",
        "duration_s": 0.5,
        "command": {"v_d_mps": [0.2, 0.0, 0.0]},
        "mpc": {"u_t_max_n": 0.0},
        "disturbances": [{"t_start_s": 0.3481, "t_end_s": 0.5, "force_n": [1e100, 0.0, 0.0]}],
    }
    (tmp_path / "probe.json").write_text(json.dumps(doc))
    assert cli.main(["run", str(tmp_path / "probe.json"), "--out", str(tmp_path / "out")]) == 2
    failure = read_summary(tmp_path / "out")["failure"]
    assert failure["kind"] == "NumericalFailure" and "\n" not in failure["detail"], failure
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_huge_push_failure_detail_is_one_short_line(tmp_path, capsys):
    """A 1e300 N push rolls the body past any fixed-point width; the detail
    stays one line of at most 80 characters."""
    doc = load_bundled("push_no_thrust")
    doc["disturbances"][0]["force_n"] = [0.0, 1e300, 0.0]
    (tmp_path / "probe.json").write_text(json.dumps(doc))
    assert cli.main(["run", str(tmp_path / "probe.json"), "--out", str(tmp_path / "out")]) == 2
    detail = read_summary(tmp_path / "out")["failure"]["detail"]
    assert "\n" not in detail and len(detail) <= 80, detail
    assert len(capsys.readouterr().out.splitlines()) == 1


@pytest.mark.parametrize("name", ["beam_walk", "flat_trot", "push_no_thrust", "push_with_thrust"])
def test_bundled_logs_hold_no_negative_thrust_or_stance_normal_force(bundled_runs, name):
    out = bundled_runs(name).out
    data = SimLog.from_csv(out / "log.csv").as_array()
    thrust = data[:, col("thrust0") : col("thrust0") + 4]
    fz = data[:, [col(f"grf{i}z") for i in range(4)]]
    stance = data[:, col("stance0") : col("stance0") + 4] == 1
    assert thrust.min() >= 0.0
    assert fz[stance].min() >= 0.0


@pytest.mark.parametrize("name, duration, outcome", [
    ("flat_trot", 1.0, None), ("beam_walk", 1.0, None),
    ("push_with_thrust", 2.0, None), ("push_no_thrust", 2.0, sim.ROLL_DIVERGENCE),
])
def test_lower_friction_ground_keeps_every_outcome(tmp_path, name, duration, outcome):
    """On ground of mu_real 0.3 the controller's pyramid, of slope 0.707 mu_real,
    follows the ground: no run slips, the pushed robot keeps its feet with
    thrusters and rolls over without them, and every stance leg's |fx| and |fy|
    in log.csv stay on the pyramid."""
    doc = load_bundled(name)
    doc["mu_real"], doc["duration_s"] = 0.3, duration
    (tmp_path / "low.json").write_text(json.dumps(doc))
    assert cli.main(["run", str(tmp_path / "low.json"), "--out", str(tmp_path / "out")]) == (2 if outcome else 0)
    failure = read_summary(tmp_path / "out")["failure"]
    assert (failure and failure["kind"]) == outcome
    data = SimLog.from_csv(tmp_path / "out" / "log.csv").as_array()
    stance = data[:, col("stance0") : col("stance0") + 4] == 1
    fx, fy, fz = (data[:, [col(f"grf{i}{a}") for i in range(4)]][stance] for a in "xyz")
    assert np.all(np.maximum(np.abs(fx), np.abs(fy)) <= 0.707 * 0.3 * fz + 1e-6)


FAILURE_KINDS = {sim.SLIP, sim.BEAM_MISS, sim.ROLL_DIVERGENCE, sim.HEIGHT_COLLAPSE, sim.SOLVER_FAILURE,
                 sim.NUMERICAL_FAILURE}


@st.composite
def physics_documents(draw):
    """A valid scenario of at most 0.5 s: one push of 1 N to 1e308 N in any
    direction, and a drawn command, stance width, terrain, friction and thrust cap."""
    azimuth, elevation = draw(st.floats(-np.pi, np.pi)), draw(st.floats(-np.pi / 2, np.pi / 2))
    direction = [np.cos(elevation) * np.cos(azimuth), np.cos(elevation) * np.sin(azimuth), np.sin(elevation)]
    magnitude = draw(st.one_of(st.floats(0.0, 200.0), st.floats(2.0, 308.0).map(lambda e: 10.0**e)))
    onset = draw(st.floats(0.0, 0.4))
    doc = {
        "name": "drawn",
        "duration_s": draw(st.floats(0.05, 0.5)),
        "disturbances": [{
            "t_start_s": onset,
            "t_end_s": onset + draw(st.floats(0.001, 0.5)),
            "force_n": [float(magnitude * c) for c in direction],
        }],
        "command": {
            "v_d_mps": [draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.2, 0.2)), 0.0],
            "yaw_rate_rps": draw(st.floats(-1.0, 1.0)),
            "height_m": draw(st.floats(0.1, 0.3)),
        },
        "gait": {"stance_width_m": draw(st.floats(0.0, 0.3))},
        "mu_real": draw(st.floats(0.3, 1.5)),
        "mpc": {"u_t_max_n": draw(st.floats(0.0, 40.0))},
    }
    if draw(st.booleans()):
        doc["terrain"] = {"kind": "beam", "width_m": draw(st.floats(0.02, 0.4)), "height_m": 0.1}
    return doc


@settings(derandomize=True, max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(physics_documents())
def test_drawn_physics_ends_in_success_or_a_named_failure(tmp_path_factory, doc):
    base = tmp_path_factory.getbasetemp() / "physics"
    base.mkdir(exist_ok=True)
    (base / "doc.json").write_text(json.dumps(doc))
    printed = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(printed):
        warnings.simplefilter("always")
        code = cli.main(["run", str(base / "doc.json"), "--out", str(base / "out")])
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2), doc
    failure = read_summary(base / "out")["failure"]
    assert (failure is None) == (code == 0)
    if failure is not None:
        assert failure["kind"] in FAILURE_KINDS
        assert "\n" not in failure["detail"]
    assert len(printed.getvalue().splitlines()) == 1


def test_env_out_dir_takes_one_subdirectory_per_config(tmp_path, monkeypatch):
    for name in ("one", "two"):
        doc = load_bundled("flat_trot")
        doc["name"] = name
        doc["duration_s"] = 0.05
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    dest = tmp_path / "env_out"
    monkeypatch.setenv("HUSKY_OUT_DIR", str(dest))
    assert cli.main(["run", str(tmp_path / "one.json"), str(tmp_path / "two.json")]) == 0
    assert read_summary(dest / "one")["scenario"] == "one"
    assert read_summary(dest / "two")["scenario"] == "two"


def test_flat_trot_ten_seconds(bundled_runs):
    code, out = bundled_runs("flat_trot")[:2]
    assert code == 0
    summary = read_summary(out)
    assert abs(summary["mean_forward_speed_mps"] - 0.2) / 0.2 < 0.2
    data = SimLog.from_csv(out / "log.csv").as_array()
    assert abs(data.shape[0] - 10000) <= 1


def test_beam_walk_soft_thrust_target_reported(bundled_runs):
    out = bundled_runs("beam_walk").out
    summary = read_summary(out)
    assert summary["thrust_soft_target_n"] == 7.0
    assert isinstance(summary["peak_thrust_within_soft_target"], bool)


def test_svg_plots_contain_polylines(bundled_runs):
    out = bundled_runs("beam_walk").out
    svg = (out / "plots" / "friction.svg").read_text()
    assert "<polyline" in svg
    assert "stroke-dasharray" in svg  # the +/- mu limit lines


def test_bundled_name_resolution(tmp_path):
    # bare scenario names resolve to the packaged configs
    doc = load_bundled("flat_trot")
    assert doc["name"] == "flat_trot"
    scenario, params, mpc_cfg, gait_cfg = cli.load_config("flat_trot")
    assert scenario.name == "flat_trot"


GOLDEN = json.loads((Path(__file__).with_name("golden_seed0.json")).read_text())


def assert_matches_pin(got, pin, where):
    """Strings, flags and None exactly; numbers to 1e-6 + 1e-3 |pin| (perfbench's rule)."""
    if isinstance(pin, dict):
        assert isinstance(got, dict) and set(got) >= set(pin), where
        for key in pin:
            assert_matches_pin(got[key], pin[key], f"{where}.{key}")
    elif isinstance(pin, list):
        assert isinstance(got, list) and len(got) == len(pin), where
        for i, (g, p) in enumerate(zip(got, pin)):
            assert_matches_pin(g, p, f"{where}[{i}]")
    elif isinstance(pin, (int, float)) and not isinstance(pin, bool):
        assert abs(got - pin) <= 1e-6 + 1e-3 * abs(pin), f"{where}: {got} vs pinned {pin}"
    else:
        assert got == pin, f"{where}: {got!r} vs pinned {pin!r}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_summary_matches_golden(bundled_runs, name):
    """The seed-0 summary of each bundled scenario against tests/golden_seed0.json
    (the failure's detail string is not pinned)."""
    code, out = bundled_runs(name)[:2]
    pin = GOLDEN[name]
    assert code == (0 if pin["outcome"] == "success" else 2)
    assert_matches_pin(read_summary(out), pin, name)


def test_run_path_imports_no_scipy(tmp_path):
    """scipy is a test dependency: importing the CLI loads none of it, and
    with scipy blocked a fresh interpreter runs a short flat_trot to exit 0."""
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 0.2
    (tmp_path / "short.json").write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from huskysim import cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy imported'\n"
        "sys.modules['scipy'] = None\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, "run", str(tmp_path / "short.json"), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert read_summary(tmp_path / "out")["outcome"] == "success"


@pytest.mark.parametrize("name, duration", [
    pytest.param("push_no_thrust", None,
                 marks=pytest.mark.reads_events("push_no_thrust", (cli, "summarize"), (cli, "write_plots"))),
    ("push_with_thrust", 1.0),
])
def test_summary_and_plots_take_the_values_log_csv_holds(bundled_runs, tmp_path, name, duration):
    """run_scenario hands summarize and write_plots the values as written, not
    as simulated: the bytes SimLog.from_csv reads back from log.csv, through a
    run that falls in the middle of a tick; summary.json is the summary of them.
    The bundled push_no_thrust is the session's run; push_with_thrust is cut to 1 s."""
    if duration is None:
        run = bundled_runs(name)
        out, events = run.out, run.events
    else:
        doc = load_bundled(name)
        doc["duration_s"] = duration
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        with recording((cli, "summarize"), (cli, "write_plots")) as events:
            cli.main(["run", str(tmp_path / f"{name}.json"), "--out", str(out)])
    read = SimLog.from_csv(out / "log.csv").as_array()
    data, scenario, outcome = calls(events, "summarize")[0].args
    if name == "push_no_thrust":
        assert outcome is not None and len(read) % 10 != 0  # it falls in the middle of a tick
    else:
        assert outcome is None
    for given in (data, calls(events, "write_plots")[0].args[0]):
        assert given.dtype == read.dtype and given.shape == read.shape and given.tobytes() == read.tobytes()
    assert read_summary(out) == json.loads(json.dumps(cli.summarize(read, scenario, outcome)))


def test_artifacts_are_written_without_a_second_copy_of_the_log(tmp_path):
    """What run_scenario does after the run, to_csv, summarize and write_plots,
    allocates at its peak less than the log's own rows: to_csv rounds the log
    in place instead of parsing the text into a second array, and the plots
    take their range from each series instead of concatenating them. A 2 s
    flat_trot log, traced with tracemalloc (the run itself is not traced)."""
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 2.0
    configs = cli.configs_from_doc(doc)
    log, outcome = sim.run(*configs)
    tracemalloc.start()
    try:
        data = log.to_csv(tmp_path / "log.csv")
        cli.summarize(data, configs[0], outcome)
        cli.write_plots(data, tmp_path / "plots", configs[0].mu_real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome is None and log.n == 2000
    assert peak <= 1.0 * log.n * len(SimLog.HEADER) * 8
