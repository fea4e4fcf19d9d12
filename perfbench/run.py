"""huskysim benchmark: real-time factor, control-tick latency, set-up time, memory.

    python3 perfbench/run.py --workload beam_walk --seed 0 --seconds 42 --trace 0

Run from the root of a checkout. The workload runs closed loop in this one
interpreter, through the CLI entry ``cli.main(["run", ...])``, so config
loading, the run loop and artifact writing are all timed. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics; the only wrappers installed are
the two control-tick stamps. ``--trace 1`` runs one untraced pass and then one
traced pass (``layers.Tracer``), checks that both write the same ``log.csv``
byte for byte, and reports the per-layer metrics and the tracing overhead.

An operation is one scenario run. It fails when its outcome differs from the
expected one, when the controller's QP fails, when its ``log.csv`` differs
from another run of the same inputs, or, at seed 0, when its summary leaves
the pinned values in ``pinned_seed0.json``. Any failure makes the command
exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS/OpenMP thread, set before numpy is first imported (in main) or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

COLD_STARTS = 6  # measured cold starts per run; one more runs first, unmeasured
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
PIN_RTOL, PIN_ATOL = 1e-3, 1e-6
REF_REPS = 20000  # reference-kernel repetitions, about 1 s on the host above

clock = time.perf_counter


@dataclass
class Op:
    """The record of one scenario run."""

    case: str
    wall_s: float = 0.0
    sim_s: float = 0.0
    log_sha: str = ""
    log_bytes: int = 0
    problems: list = field(default_factory=list)


def _close(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is b
    return abs(a - b) <= PIN_ATOL + PIN_RTOL * abs(b)


def pinned_problems(summary: dict, pin: dict) -> list[str]:
    """Differences from a pinned summary: kinds exactly, numbers within tolerance."""
    got_failure = summary.get("failure") or {}
    pin_failure = pin.get("failure") or {}
    problems = []
    if summary["outcome"] != pin["outcome"] or got_failure.get("kind") != pin_failure.get("kind"):
        problems.append(f"outcome {summary['outcome']}/{got_failure.get('kind')} != pinned "
                        f"{pin['outcome']}/{pin_failure.get('kind')}")
    if pin_failure and not _close(got_failure.get("t_s"), pin_failure["t_s"]):
        problems.append(f"failure t_s {got_failure.get('t_s')} != pinned {pin_failure['t_s']}")
    for key, want in pin.items():
        if key not in ("outcome", "failure") and not _close(summary.get(key), want):
            problems.append(f"{key} {summary.get(key)} != pinned {want}")
    return problems


def run_case(cli, workloads, case, cfg_path: Path, out_dir: Path, pin) -> Op:
    """One scenario run through the CLI, timed, then checked."""
    op = Op(case.name)
    buf = io.StringIO()
    try:
        start = clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["run", str(cfg_path), "--out", str(out_dir)])
        op.wall_s = clock() - start
        log = (out_dir / "log.csv").read_bytes()
        summary = json.loads((out_dir / "summary.json").read_text())
    except Exception:  # one broken run is a failed operation, not a crashed benchmark
        traceback.print_exc()
        op.problems.append("run raised")
        return op
    op.log_sha = hashlib.sha256(log).hexdigest()
    op.log_bytes = len(log)
    op.sim_s = (log.count(b"\n") - 1) * case.doc["sim_dt_s"]
    kind = (summary.get("failure") or {}).get("kind")
    if kind == "SolverFailure":
        op.problems.append("SolverFailure")
    if case.expect == workloads.SUCCESS and (code != 0 or summary["outcome"] != "success"):
        op.problems.append(f"expected success, got exit {code} ({kind})")
    if case.expect == workloads.FALL and (code != 2 or kind not in workloads.FALL_KINDS):
        op.problems.append(f"expected a fall, got exit {code} ({kind})")
    if pin is not None:
        op.problems += pinned_problems(summary, pin[case.name])
    return op


def run_pass(cli, workloads, cases, paths, out_dirs, pin) -> list[Op]:
    return [run_case(cli, workloads, c, paths[c.name], out_dirs[c.name], pin) for c in cases]


def cold_start(cfg_path: Path) -> float:
    """Seconds from launching a fresh interpreter to its first finished tick."""
    start = clock()
    with subprocess.Popen([sys.executable, str(HERE / "coldstart.py"), str(cfg_path)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"cold start failed (exit {proc.returncode})")
    return elapsed


def host_reference(np, cho_factor) -> float:
    """Seconds for a fixed kernel (80x80 Cholesky plus cross products); drift only."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((80, 80))
    spd = a @ a.T + 80.0 * np.eye(80)
    u, v = rng.standard_normal((2, 4, 3))
    start = clock()
    for _ in range(REF_REPS):
        cho_factor(spd, lower=True)
        np.cross(u, v)
    return clock() - start


def tail_percentile(n: int) -> float:
    """Highest percentile, to 0.1, that leaves TAIL_BEYOND of n samples above it."""
    return max(0.0, math.floor(1000.0 * (1.0 - TAIL_BEYOND / n)) / 10.0)


def verdict(ops: list[Op]) -> tuple[int, int]:
    for op in ops:
        for problem in op.problems:
            print(f"FAIL {op.case}: {problem}", file=sys.stderr)
    return len(ops), sum(1 for op in ops if op.problems)


def mark_log_mismatches(reference: list[Op], ops: list[Op], what: str) -> None:
    for ref, op in zip(reference, ops):
        if ref.log_sha and op.log_sha and ref.log_sha != op.log_sha:
            op.problems.append(f"log.csv differs from {what}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("beam_walk", "push_pair", "fine_step_trot"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "huskysim" / "cli.py").is_file():
        print(f"error: no huskysim sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from scipy.linalg import cho_factor

    import layers
    import workloads
    from coldstart import warm_tick
    from huskysim import cli

    cases = workloads.cases(args.workload, args.seed)
    pin = json.loads((HERE / "pinned_seed0.json").read_text()) if args.seed == 0 else None
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    paths, out_dirs = {}, {}
    for case in cases:
        paths[case.name] = base / "configs" / f"{case.name}.json"
        out_dirs[case.name] = base / "runs" / case.name
        paths[case.name].parent.mkdir(parents=True, exist_ok=True)
        paths[case.name].write_text(json.dumps(case.doc, indent=2) + "\n")
    first_cfg = paths[cases[0].name]

    ref_before = host_reference(np, cho_factor)
    setup = []
    if not args.trace:
        cold_start(first_cfg)  # fills the bytecode and file caches; not measured
    warm_tick(first_cfg)

    ticks = layers.TickStamps()
    with ticks.installed():
        if not args.trace:
            n_passes = workloads.passes(args.workload, args.seconds)
            # cold starts go before and between passes, so that their median
            # samples the host over the whole run rather than one moment of it
            slots = [j % (n_passes + 1) for j in range(COLD_STARTS)]
            ops, traced = [], []
            for i in range(n_passes + 1):
                setup += [cold_start(first_cfg) for _ in range(slots.count(i))]
                if i == n_passes:
                    break
                done = run_pass(cli, workloads, cases, paths, out_dirs, pin)
                mark_log_mismatches(ops[: len(cases)], done, "the first pass")
                ops += done
        else:
            ops = run_pass(cli, workloads, cases, paths, out_dirs, pin)
            untraced_ticks = list(ticks.latencies)
            tracer = layers.Tracer(ticks)
            with tracer.installed():
                traced = run_pass(cli, workloads, cases, paths, out_dirs, pin)
            mark_log_mismatches(ops, traced, "the untraced run")
    ref_after = host_reference(np, cho_factor)

    attempted, failed = verdict(ops + traced)
    if not ticks.latencies:  # every run broke before its first tick: nothing to measure
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if not args.trace:
        lat_ms = np.array(ticks.latencies) * 1e3
        q_tail = tail_percentile(lat_ms.size)
        metrics = {
            "realtime_factor": (sum(o.sim_s for o in ops) / sum(o.wall_s for o in ops), "sim_s/s"),
            "tick_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "tick_tail_ms": (float(np.percentile(lat_ms, q_tail)), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"tick_tail_ms is p{q_tail:g} of {lat_ms.size} ticks in {n_passes} passes "
              f"({lat_ms.size * (100 - q_tail) / 100:.1f} beyond); setup_s is the median of "
              f"{COLD_STARTS} cold starts: {', '.join(f'{s:.3f}' for s in setup)}")
    else:
        n_ticks = len(ticks.latencies) - len(untraced_ticks)
        untraced_wall = sum(o.wall_s for o in ops)
        metrics = tracer.metrics(
            ticks=n_ticks,
            tick_latencies_untraced=untraced_ticks,
            deadline_s=1.0 / cases[0].doc["mpc"]["rate_hz"],
            log_bytes=sum(o.log_bytes for o in traced),
        )
        metrics["trace.overhead_frac"] = (
            sum(o.wall_s for o in traced) / untraced_wall - 1.0 if untraced_wall else 0.0, "frac")

    for op in ops:
        print(f"op {op.case}: {op.wall_s:.3f} s wall, {op.sim_s:.3f} s simulated, "
              f"{'ok' if not op.problems else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"host_ref_s before {ref_before:.4f} after {ref_after:.4f} (fixed kernel; not gated)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
