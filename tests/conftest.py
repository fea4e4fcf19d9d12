import json
from pathlib import Path

import numpy as np
import pytest

from huskysim import cli
from huskysim.sim import run

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "huskysim" / "scenarios"


def load_bundled(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def run_doc(doc: dict):
    return run(*cli.configs_from_doc(doc))


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    """Each bundled scenario executed once through the CLI; results cached."""
    cache = {}

    def _run(name: str):
        if name not in cache:
            out = tmp_path_factory.mktemp(f"run_{name}")
            code = cli.main(["run", name, "--out", str(out)])
            cache[name] = (code, out)
        return cache[name]

    return _run


@pytest.fixture(scope="session")
def scenario_walltimes():
    """Wall-clock seconds per bundled CLI run, filled in by the runs fixture."""
    return {}


@pytest.fixture(scope="session")
def timed_cli_runs(cli_runs, scenario_walltimes):
    import time

    def _run(name: str):
        t0 = time.time()
        result = cli_runs(name)
        elapsed = time.time() - t0
        scenario_walltimes.setdefault(name, elapsed)
        return result

    return _run


def read_summary(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "summary.json").read_text())


def pgd_oracle(P, q, G, h, iters=100000):
    """Independent QP oracle: projected gradient ascent on the dual problem.

    max over lam >= 0 of -0.5 (q + G'lam)' P^-1 (q + G'lam) - h'lam,
    recovering x = -P^-1 (q + G'lam). First-order method with step 1/L and
    Nesterov momentum, restarted whenever the step turns against the
    momentum (O'Donoghue & Candes 2015), so it shares no machinery with the
    active-set solver; without momentum it stalls on the ill-conditioned
    duals of closed-loop MPC instances during a push.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    if G is None or len(G) == 0:
        return np.linalg.solve(P, -q)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    pinv_gt = np.linalg.solve(P, G.T)
    pinv_q = np.linalg.solve(P, q)
    lip = max(np.linalg.eigvalsh(G @ pinv_gt).max(), 1e-12)
    lam = np.zeros(G.shape[0])
    y, t = lam, 1.0
    step = 1.0 / lip
    for _ in range(iters):
        grad = -(G @ (pinv_q + pinv_gt @ y)) - h
        lam_new = np.maximum(y + step * grad, 0.0)
        if np.abs(lam_new - y).max() < 1e-14:
            lam = lam_new
            break
        if (y - lam_new) @ (lam_new - lam) > 0.0:
            t = 1.0  # restart
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = lam_new + (t - 1.0) / t_new * (lam_new - lam)
        lam, t = lam_new, t_new
    return -np.linalg.solve(P, q + G.T @ lam)
