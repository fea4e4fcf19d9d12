import json
from pathlib import Path

import numpy as np
import pytest

from conftest import load_bundled, read_summary
from huskysim import cli
from huskysim.sim import SimLog

col = SimLog.HEADER.index


def test_beam_walk_run_artifacts(cli_runs):
    code, out = cli_runs("beam_walk")
    assert code == 0
    assert (out / "log.csv").exists()
    assert (out / "summary.json").exists()
    for name in ("position.svg", "attitude_thrust.svg", "friction.svg"):
        assert (out / "plots" / name).exists()
    summary = read_summary(out)
    assert summary["outcome"] == "success"
    assert max(summary["peak_thrust_n"]) <= 20.0


def test_push_without_thrusters_exits_2(cli_runs):
    code, out = cli_runs("push_no_thrust")
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
        ('{"mpc": {"mu": -1}}', "mu"),
        ('{"mpc": {"mu": NaN}}', "mu"),
        ('{"gait": {"t_stance_s": NaN}}', "t_stance_s"),
        ('{"gait": {"t_stance_s": 0}}', "t_stance_s"),
        ('{"gait": {"t_swing_s": -0.1}}', "t_swing_s"),
    ],
    ids=["rate_zero", "rate_negative", "rate_inf", "rate_nan", "duration_nan", "duration_inf",
         "sim_dt_nan", "sim_dt_inf", "mpc_dt_nan", "mu_negative", "mu_nan", "t_stance_nan",
         "t_stance_zero", "t_swing_negative"],
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
        ('{"mpc": {"thrusters_enabled": "no"}}', "mpc.thrusters_enabled"),
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
    ],
    ids=["mass_nan", "knee_offset_nan", "gravity_negative", "thigh_negative", "joint_limits_one_row",
         "mu_s_unknown", "q_diag_nan", "horizon_fraction", "horizon_bool", "thrusters_string",
         "beam_height_nan", "mu_real_nan", "mu_real_negative", "seed_unknown", "thrusters_top_level_unknown",
         "lateral_clamp_unknown", "horizn_unknown", "t_stanse_unknown", "speed_unknown", "duraton_unknown",
         "foot_margin_negative", "name_empty", "name_dot", "name_dotdot", "name_parent_path",
         "name_backslash", "name_nul"],
)
def test_invalid_setting_exits_1(tmp_path, capsys, doc, key):
    """Values outside a setting's declared type, shape or bound, and unknown keys,
    fail at load: exit 1 and one error line, never a traceback or a simulated fall."""
    assert_one_error_line(tmp_path, capsys, doc, key)


def assert_one_error_line(tmp_path, capsys, doc, key):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code = cli.main(["run", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and key in err[0]


def test_summary_recomputed_from_log_matches(cli_runs):
    code, out = cli_runs("push_with_thrust")
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


def test_compare_identical_runs(cli_runs, capsys, tmp_path):
    _, out = cli_runs("push_with_thrust")
    code = cli.main(["compare", str(out / "summary.json"), str(out / "summary.json")])
    assert code == 0
    captured = capsys.readouterr().out
    diff = json.loads(captured[captured.index("{") :])
    assert all(
        np.allclose(v, 0.0) for v in diff["deltas"].values()
    )


def test_compare_with_vs_without_thrust(cli_runs, capsys):
    _, out_with = cli_runs("push_with_thrust")
    _, out_without = cli_runs("push_no_thrust")
    code = cli.main(
        ["compare", str(out_with / "summary.json"), str(out_without / "summary.json")]
    )
    assert code == 0
    captured = capsys.readouterr().out
    diff = json.loads(captured[captured.index("{") :])
    assert diff["recovered"]["a"] is True
    assert diff["recovered"]["b"] is False


def test_compare_schema_mismatch(tmp_path, cli_runs, capsys):
    _, out = cli_runs("push_with_thrust")
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


def test_document_without_friction_keys_runs_as_bundled(tmp_path):
    """mu_real and mpc.mu default to the values every bundled scenario states."""
    stated = load_bundled("beam_walk")
    stated["duration_s"] = 0.3
    bare = json.loads(json.dumps(stated))
    del bare["mu_real"], bare["mpc"]["mu"]
    for name, doc in (("stated", stated), ("bare", bare)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert cli.main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "bare" / "log.csv").read_bytes() == (tmp_path / "stated" / "log.csv").read_bytes()


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


def test_flat_trot_ten_seconds(cli_runs):
    code, out = cli_runs("flat_trot")
    assert code == 0
    summary = read_summary(out)
    assert abs(summary["mean_forward_speed_mps"] - 0.2) / 0.2 < 0.2
    data = SimLog.from_csv(out / "log.csv").as_array()
    assert abs(data.shape[0] - 10000) <= 1


def test_beam_walk_soft_thrust_target_reported(cli_runs):
    _, out = cli_runs("beam_walk")
    summary = read_summary(out)
    assert summary["thrust_soft_target_n"] == 7.0
    assert isinstance(summary["peak_thrust_within_soft_target"], bool)


def test_svg_plots_contain_polylines(cli_runs):
    _, out = cli_runs("beam_walk")
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
def test_bundled_summary_matches_golden(cli_runs, name):
    """The seed-0 summary of each bundled scenario against tests/golden_seed0.json
    (the failure's detail string is not pinned)."""
    code, out = cli_runs(name)
    pin = GOLDEN[name]
    assert code == (0 if pin["outcome"] == "success" else 2)
    assert_matches_pin(read_summary(out), pin, name)
