import json

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
    assert "huskysim-summary/1" in err and "huskysim-summary/0" in err


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


def test_no_thrusters_flag(tmp_path):
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 0.3
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg), "--out", str(out), "--no-thrusters"])
    assert code == 0
    data = SimLog.from_csv(out / "log.csv").as_array()
    thr = data[:, col("thrust0") : col("thrust0") + 4]
    assert np.all(thr == 0.0)


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
    code = cli.main(["run", *paths, "--out", str(out), "--sweep"])
    assert code == 0
    assert (out / "mini0" / "log.csv").exists()
    assert (out / "mini1" / "log.csv").exists()


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
