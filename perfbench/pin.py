"""Write ``pinned_seed0.json``: the seed-0 summary of every benchmark scenario.

    python3 perfbench/pin.py

The benchmark checks each seed-0 run against these values (failure kind
exactly, numbers within run.PIN_RTOL/PIN_ATOL). Re-pin only for an intended
change of behaviour, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run  # sets the thread variables before numpy is imported

KEEP = ("outcome", "failure", "max_abs_roll_rad", "max_abs_lateral_deviation_m", "peak_thrust_n",
        "peak_friction_ratio", "recovery_time_s", "mean_forward_speed_mps")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads
    from huskysim import cli

    pins = {}
    for workload in workloads.PASS_SECONDS:
        for case in workloads.cases(workload, 0):
            base = run.OUT / "pin" / case.name
            base.mkdir(parents=True, exist_ok=True)
            cfg = base / "config.json"
            cfg.write_text(json.dumps(case.doc))
            cli.main(["run", str(cfg), "--out", str(base)])
            summary = json.loads((base / "summary.json").read_text())
            pins[case.name] = {k: summary[k] for k in KEEP}
            if pins[case.name]["failure"]:
                pins[case.name]["failure"].pop("detail")
    (run.HERE / "pinned_seed0.json").write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
