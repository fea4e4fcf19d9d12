"""Scenario runner CLI: execute configs, write artifacts, compare summaries.

Exit codes: 0 success, 2 the simulated run ended in a failure event,
1 config or IO error. Output directory resolution: --out flag, then the
HUSKY_OUT_DIR environment variable, then ./runs/<scenario name>.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import config
from . import sim as sim_mod
from .gait import GaitConfig
from .mpc import MpcConfig
from .robot import RobotParams
from .sim import Scenario, run
from .svgplot import line_chart

SUMMARY_SCHEMA = "huskysim-summary/2"

RECOVERY_ROLL_LIMIT = 0.05  # rad
RECOVERY_HOLD = 0.5  # s the roll must stay inside the limit
THRUST_SOFT_TARGET = 7.0  # N, reported against the peak, never gated

# the document's nested config objects; its other keys are the scenario's
SECTIONS = {"robot": RobotParams, "mpc": MpcConfig, "gait": GaitConfig}


class ConfigInvalid(Exception):
    pass


def _bundled_scenario_path(name: str):
    return resources.files("huskysim").joinpath(f"scenarios/{name}.json")


def configs_from_doc(doc: dict):
    """(scenario, params, mpc_cfg, gait_cfg) from a parsed scenario document.

    Raises config.ConfigError for an invalid document.
    """
    if not isinstance(doc, dict):
        raise config.ConfigError("document: must be an object")
    scenario = config.load(Scenario, {k: v for k, v in doc.items() if k not in SECTIONS})
    sections = [config.load(cls, doc.get(key, {}), key) for key, cls in SECTIONS.items()]
    scenario.validate()
    for key, obj in zip(SECTIONS, sections):
        obj.validate(key)
    return (scenario, *sections)


def load_config(path):
    """Read a scenario file (path or bundled name) into (scenario, params, mpc_cfg, gait_cfg)."""
    p = Path(path)
    if not p.exists():
        bundled = _bundled_scenario_path(str(path))
        if bundled.is_file():
            p = bundled
        else:
            raise ConfigInvalid(f"config file not found: {path}")
    try:
        doc = json.loads(Path(p).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or an integer too long to parse
        raise ConfigInvalid(f"{path}: cannot read a JSON document ({exc})") from exc
    try:
        return configs_from_doc(doc)
    except config.ConfigError as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def summarize(data: np.ndarray, scenario: sim_mod.Scenario, outcome, mu_limit: float) -> dict:
    """Summary metrics from the serialized log (data: the rows of log.csv as
    SimLog.from_csv reads them back), so a reader of the CSV reproduces them
    exactly."""
    col = sim_mod.SimLog.HEADER.index
    summary = {
        "schema_version": SUMMARY_SCHEMA,
        "scenario": scenario.name,
        "outcome": "success" if outcome is None else "failure",
        "failure": None
        if outcome is None
        else {"kind": outcome.kind, "t_s": outcome.t, "detail": outcome.detail},
        "mu_limit": mu_limit,
        "thrust_soft_target_n": THRUST_SOFT_TARGET,
    }
    if data.shape[0] == 0:
        summary.update(
            max_abs_roll_rad=0.0,
            max_abs_lateral_deviation_m=0.0,
            peak_thrust_n=[0.0] * 4,
            peak_thrust_within_soft_target=True,
            peak_friction_ratio=[0.0] * 4,
            recovery_time_s=None,
            mean_forward_speed_mps=0.0,
        )
        return summary

    t = data[:, col("t")]
    roll = data[:, col("roll")]
    py = data[:, col("py")]
    px = data[:, col("px")]
    thrust = data[:, col("thrust0") : col("thrust0") + 4]
    ratios = data[:, col("ratio0") : col("ratio0") + 4]

    summary["max_abs_roll_rad"] = float(np.abs(roll).max())
    summary["max_abs_lateral_deviation_m"] = float(np.abs(py - py[0]).max())
    summary["peak_thrust_n"] = [float(v) for v in thrust.max(axis=0)]
    summary["peak_thrust_within_soft_target"] = bool(thrust.max() <= THRUST_SOFT_TARGET)
    summary["peak_friction_ratio"] = [float(v) for v in ratios.max(axis=0)]
    span = t[-1] - t[0]
    summary["mean_forward_speed_mps"] = float((px[-1] - px[0]) / span) if span > 0 else 0.0

    recovery = None
    if scenario.disturbances:
        t_end = max(d.t_end for d in scenario.disturbances)
        calm = np.abs(roll) < RECOVERY_ROLL_LIMIT
        after = t >= t_end
        dt = t[1] - t[0] if t.size > 1 else 0.0
        hold = int(round(RECOVERY_HOLD / dt)) if dt > 0 else 1
        idx = np.flatnonzero(after & calm)
        for j in idx:
            j_hi = j + hold
            if j_hi <= calm.size and calm[j:j_hi].all():
                recovery = float(t[j] - t_end)  # time after the disturbance ended
                break
    summary["recovery_time_s"] = recovery
    return summary


def write_plots(data: np.ndarray, plots_dir, mu_limit: float):
    """SVG charts of the rows of log.csv, as summarize takes them."""
    col = sim_mod.SimLog.HEADER.index
    plots_dir = Path(plots_dir)
    plots_dir.mkdir(parents=True, exist_ok=True)
    if data.shape[0] == 0:
        data = np.zeros((1, len(sim_mod.SimLog.HEADER)))
    t = data[:, 0]

    line_chart(
        plots_dir / "position.svg",
        t,
        {n: data[:, col(n)] for n in ("px", "py", "pz")},
        title="COM position",
        ylabel="m",
    )
    series = {n: data[:, col(n)] for n in ("roll", "pitch", "yaw")}
    series.update({f"thrust{i} [N]": data[:, col(f"thrust{i}")] for i in range(4)})
    line_chart(
        plots_dir / "attitude_thrust.svg",
        t,
        series,
        title="Attitude [rad] and thruster forces [N]",
        ylabel="rad / N",
    )
    line_chart(
        plots_dir / "friction.svg",
        t,
        {f"ratio{i}": data[:, col(f"ratio{i}")] for i in range(4)},
        title="Tangential/normal force ratio per leg",
        ylabel="ratio",
        hlines=(mu_limit, -mu_limit),
    )


def run_scenario(config_path, out_dir=None) -> int:
    """Run one scenario and write log.csv, summary.json, and plots/*.svg into
    out_dir, or into runs/<scenario name> when out_dir is None."""
    try:
        scenario, params, mpc_cfg, gait_cfg = load_config(config_path)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(out_dir) if out_dir else Path("runs") / scenario.name
    try:
        out.mkdir(parents=True, exist_ok=True)
        log, outcome = run(scenario, params, mpc_cfg, gait_cfg)
        log.to_csv(out / "log.csv")
        written = sim_mod.SimLog.from_csv(out / "log.csv").as_array()
        summary = summarize(written, scenario, outcome, scenario.mu_real)
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        write_plots(written, out / "plots", scenario.mu_real)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if outcome is None:
        print(f"{scenario.name}: success ({len(log.rows)} steps)")
        return 0
    print(f"{scenario.name}: {outcome.kind} at t={outcome.t:.3f}s: {outcome.detail}")
    return 2


# the keys of a summary that compare_runs reads, after its schema_version
SCALAR_METRICS = ("max_abs_roll_rad", "max_abs_lateral_deviation_m", "mean_forward_speed_mps")
COMPARED = ("scenario", "outcome", *SCALAR_METRICS, "peak_thrust_n", "peak_friction_ratio")


def _read_summary(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"{path}: cannot read a summary ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{path}: a summary must be a JSON object")
    return doc


def compare_runs(summary_a_path, summary_b_path):
    """Per-metric deltas between two run summaries."""
    a, b = _read_summary(summary_a_path), _read_summary(summary_b_path)
    va, vb = a.get("schema_version"), b.get("schema_version")
    if va != vb:
        raise ConfigInvalid(f"summary schema mismatch: {va!r} vs {vb!r}")
    for path, doc in ((summary_a_path, a), (summary_b_path, b)):
        missing = [key for key in COMPARED if key not in doc]
        if missing:
            raise ConfigInvalid(f"{path}: summary lacks {missing[0]!r}")

    diff = {
        "a": a["scenario"],
        "b": b["scenario"],
        "deltas": {},
        "recovered": {"a": a["outcome"] == "success", "b": b["outcome"] == "success"},
    }
    try:
        for key in SCALAR_METRICS:
            diff["deltas"][key] = b[key] - a[key]
        for key in ("peak_thrust_n", "peak_friction_ratio"):
            diff["deltas"][key] = [bb - aa for aa, bb in zip(a[key], b[key])]
    except TypeError as exc:
        raise ConfigInvalid(f"a summary metric is not a number or a list of numbers ({exc})") from exc
    return diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="huskysim", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run one or more scenario configs")
    p_run.add_argument("configs", nargs="+", help="scenario JSON path or bundled name")
    p_run.add_argument("--out", default=None, help="output directory (one subdirectory per config)")

    p_cmp = sub.add_parser("compare", help="diff two summary.json files")
    p_cmp.add_argument("summary_a")
    p_cmp.add_argument("summary_b")

    args = parser.parse_args(argv)

    if args.cmd == "run":
        base = args.out or os.environ.get("HUSKY_OUT_DIR")
        outs = [base] * len(args.configs)
        if base and len(args.configs) > 1:
            stems = [Path(cfg).stem for cfg in args.configs]
            twice = next((stem for i, stem in enumerate(stems) if stem in stems[:i]), None)
            if twice is not None:
                print(f"error: two configs share the stem {twice!r}, which names their output directory",
                      file=sys.stderr)
                return 1
            outs = [str(Path(base) / stem) for stem in stems]
        codes = [run_scenario(cfg, out) for cfg, out in zip(args.configs, outs)]
        if 1 in codes:
            return 1
        return 2 if 2 in codes else 0

    try:
        diff = compare_runs(args.summary_a, args.summary_b)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, val in diff["deltas"].items():
        print(f"{key}: {val}")
    print(f"recovered: a={diff['recovered']['a']} b={diff['recovered']['b']}")
    print(json.dumps(diff, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
