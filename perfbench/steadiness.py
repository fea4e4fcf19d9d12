"""Repeat the benchmark over seeds and report each metric's median and quartiles.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads beam_walk push_pair] [--json out.json]

Runs are made one at a time, round robin over the workloads, so the runs of
one workload are spread over the whole measurement rather than taken back
to back. For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) /
median, next to the metric's bound in BENCHMARK.json. ``--trace 1`` does the
same for the per-layer metrics; ``--json`` keeps every run's result, so two
sets can be compared run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None, help="write every run's result here")
    args = parser.parse_args()

    results = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            drift = next((ln for ln in lines if ln.startswith("host_ref_s")), "")
            result = json.loads(lines[-1]) if proc.returncode == 0 else {"error": proc.stderr[-2000:]}
            result.update(seed=seed, exit=proc.returncode, host_ref=drift)
            results[workload].append(result)
            print(f"{workload} seed {seed}: exit {proc.returncode} {drift}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload, runs in results.items():
        ok = [r for r in runs if r["exit"] == 0]
        print(f"\n{workload}: {len(ok)}/{len(runs)} runs ok, "
              f"failed ops {sum(r.get('failed', 0) for r in ok)} of {sum(r.get('attempted', 0) for r in ok)}")
        if len(ok) < 2:
            continue
        for name in ok[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in ok]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
