"""One cold start: imports, config loading, controller construction, one tick.

``python3 perfbench/coldstart.py <config.json>`` prints ``ready`` once the
first control tick has returned; the caller times a fresh interpreter up to
that line. ``warm_tick`` is also what the benchmark runs in its own process
before it starts timing.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def warm_tick(config_path) -> None:
    """Load the config and run the real loop for exactly one control tick."""
    from huskysim import cli, sim

    scenario, params, mpc_cfg, gait_cfg = cli.load_config(config_path)
    scenario.duration = 1.0 / mpc_cfg.rate_hz
    sim.run(scenario, params, mpc_cfg, gait_cfg)


if __name__ == "__main__":
    warm_tick(sys.argv[1])
    print("ready", flush=True)
