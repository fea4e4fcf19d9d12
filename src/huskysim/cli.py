"""Scenario runner CLI: execute configs, write artifacts, compare summaries.

Exit codes: 0 success, 2 the simulated run ended in a failure event,
1 config or IO error. Output directory resolution: --out flag, then the
HUSKY_OUT_DIR environment variable (one subdirectory per config, named after
its file stem, when several run), then ./runs/<scenario name>. Every config
is loaded, and two configs with one output directory are rejected, before
the first run.
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


def configs_from_doc(doc: dict):
    """(scenario, params, mpc_cfg, gait_cfg) from a parsed scenario document.

    Raises config.ConfigError for an invalid document.
    """
    if not isinstance(doc, dict):
        raise config.ConfigError("document: must be an object")
    scenario = config.load(Scenario, {k: v for k, v in doc.items() if k not in SECTIONS})
    params, mpc_cfg, gait_cfg = [config.load(cls, doc.get(key, {}), key) for key, cls in SECTIONS.items()]
    sim_mod.steps_per_tick(mpc_cfg.rate_hz, scenario.sim_dt)
    return scenario, params, mpc_cfg, gait_cfg


def load_config(path):
    """Read a scenario file (path or bundled name) into (scenario, params, mpc_cfg, gait_cfg)."""
    p = Path(path)
    if not p.exists():
        bundled = resources.files("huskysim").joinpath(f"scenarios/{path}.json")
        if bundled.is_file():
            p = bundled
        else:
            raise config.ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(Path(p).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or an integer too long to parse
        raise config.ConfigError(f"{path}: cannot read a JSON document ({exc})") from exc
    try:
        return configs_from_doc(doc)
    except config.ConfigError as exc:
        raise config.ConfigError(f"{path}: {exc}") from exc


def summarize(data: np.ndarray, scenario: sim_mod.Scenario, outcome) -> dict:
    """Summary metrics from the serialized log (data: the rows of log.csv as
    SimLog.from_csv reads them back), so a reader of the CSV reproduces them
    exactly; every metric of an empty log (a run that fails at t = 0) is 0."""
    col = sim_mod.SimLog.HEADER.index
    summary = {
        "schema_version": SUMMARY_SCHEMA,
        "scenario": scenario.name,
        "outcome": "success" if outcome is None else "failure",
        "failure": None
        if outcome is None
        else {"kind": outcome.kind, "t_s": outcome.t, "detail": outcome.detail},
        "mu_limit": scenario.mu_real,
        "thrust_soft_target_n": THRUST_SOFT_TARGET,
    }
    t = data[:, col("t")]
    roll = data[:, col("roll")]
    py = data[:, col("py")]
    px = data[:, col("px")]
    thrust = data[:, col("thrust0") : col("thrust0") + 4]
    ratios = data[:, col("ratio0") : col("ratio0") + 4]

    summary["max_abs_roll_rad"] = float(np.abs(roll).max(initial=0.0))
    summary["max_abs_lateral_deviation_m"] = float(np.abs(py - py[:1]).max(initial=0.0))
    summary["peak_thrust_n"] = [float(v) for v in thrust.max(axis=0, initial=0.0)]
    summary["peak_thrust_within_soft_target"] = bool(thrust.max(initial=0.0) <= THRUST_SOFT_TARGET)
    summary["peak_friction_ratio"] = [float(v) for v in ratios.max(axis=0, initial=0.0)]
    span = t[-1] - t[0] if t.size else 0.0
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


def run_scenario(configs, out: Path) -> int:
    """Run one loaded scenario, (scenario, params, mpc_cfg, gait_cfg), and write
    log.csv, summary.json and plots/*.svg into out."""
    scenario = configs[0]
    try:
        out.mkdir(parents=True, exist_ok=True)
        log, outcome = run(*configs)
        log.to_csv(out / "log.csv")
        written = sim_mod.SimLog.from_csv(out / "log.csv").as_array()
        summary = summarize(written, scenario, outcome)
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        write_plots(written, out / "plots", scenario.mu_real)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if outcome is None:
        print(f"{scenario.name}: success ({log.n} steps)")
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
        raise config.ConfigError(f"{path}: cannot read a summary ({exc})") from exc
    if not isinstance(doc, dict):
        raise config.ConfigError(f"{path}: a summary must be a JSON object")
    return doc


def compare_runs(summary_a_path, summary_b_path):
    """Per-metric deltas between two run summaries."""
    a, b = _read_summary(summary_a_path), _read_summary(summary_b_path)
    va, vb = a.get("schema_version"), b.get("schema_version")
    if va != vb:
        raise config.ConfigError(f"summary schema mismatch: {va!r} vs {vb!r}")
    for path, doc in ((summary_a_path, a), (summary_b_path, b)):
        missing = [key for key in COMPARED if key not in doc]
        if missing:
            raise config.ConfigError(f"{path}: summary lacks {missing[0]!r}")

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
        raise config.ConfigError(f"a summary metric is not a number or a list of numbers ({exc})") from exc
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
        try:  # every config before the first run
            loaded = [load_config(path) for path in args.configs]
        except config.ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # each config's output directory: base for one config, base/<file stem>
        # for several, runs/<scenario name> without a base; no two may be one
        base = args.out or os.environ.get("HUSKY_OUT_DIR")
        if not base:
            outs = [Path("runs") / configs[0].name for configs in loaded]
        elif len(loaded) == 1:
            outs = [Path(base)]
        else:
            outs = [Path(base) / Path(path).stem for path in args.configs]
        for i, out in enumerate(outs):
            if out in outs[:i]:
                print(f"error: {args.configs[outs.index(out)]} and {args.configs[i]} both write to "
                      f"the output directory {out.name!r} in {out.parent}", file=sys.stderr)
                return 1
        codes = [run_scenario(configs, out) for configs, out in zip(loaded, outs)]
        if 1 in codes:
            return 1
        return 2 if 2 in codes else 0

    try:
        diff = compare_runs(args.summary_a, args.summary_b)
    except config.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, val in diff["deltas"].items():
        print(f"{key}: {val}")
    print(f"recovered: a={diff['recovered']['a']} b={diff['recovered']['b']}")
    print(json.dumps(diff, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
