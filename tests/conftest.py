import os

# one OpenBLAS thread before this process loads numpy, as importing huskysim pins it for a run
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import itertools
import json
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from huskysim import cli
from huskysim.dynamics import GRF, NU, OMEGA, P, THETA, THRUST, V
from huskysim.robot import LEG_SIDE_SIGN, leg_forward_kinematics
from huskysim.rotations import rot_x
from huskysim.sim import FailureEvent, SimLog, run

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "huskysim" / "scenarios"


def load_bundled(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def run_doc(doc: dict):
    return run(*cli.configs_from_doc(doc))


class Call(NamedTuple):
    """A recorded call's entry: its target's name and the arguments it was given."""

    name: str
    args: tuple
    kwargs: dict


class Return(NamedTuple):
    """A recorded call's return: its target's name, its Call and its result."""

    name: str
    call: Call
    result: object


@contextlib.contextmanager
def recording(*targets):
    """Wrap each (owner, name) target while the block runs and yield the list of
    its calls' events, in order: a Call when a call starts and a Return when it
    returns; a call that raises has no Return. The events hold the arguments and
    results themselves, not copies. Every name is restored on exit."""
    events = []

    def watched(name, original):
        def wrapper(*args, **kwargs):
            events.append(call := Call(name, args, kwargs))
            result = original(*args, **kwargs)
            events.append(Return(name, call, result))
            return result

        return wrapper

    originals = [(owner, name, getattr(owner, name)) for owner, name in targets]
    try:
        for owner, name, original in originals:
            setattr(owner, name, watched(name, original))
        yield events
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


@contextlib.contextmanager
def raising(owner, name, error, at: int):
    """Replace owner.name while the block runs: its call number ``at`` (from 0)
    raises error, and every other call goes to the original. The name is
    restored on exit."""
    original, count = getattr(owner, name), itertools.count()

    def wrapper(*args, **kwargs):
        if next(count) == at:
            raise error
        return original(*args, **kwargs)

    try:
        setattr(owner, name, wrapper)
        yield
    finally:
        setattr(owner, name, original)


def calls(events, name):
    """The recorded Calls of name, in order."""
    return [e for e in events if isinstance(e, Call) and e.name == name]


def returns(events, name):
    """(Call, result) of each recorded call of name that returned, in order of return."""
    return [(e.call, e.result) for e in events if isinstance(e, Return) and e.name == name]


def state_vector(theta=0.0, p=0.0, omega=0.0, v=0.0) -> np.ndarray:
    """The plant's 12-vector state from its parts, each three values or one for all three."""
    x = np.empty(12)
    x[THETA], x[P], x[OMEGA], x[V] = theta, p, omega, v
    return x


def input_vector(grf=0.0, thrust=0.0) -> np.ndarray:
    """The 16-vector input from its parts: the ground forces, (4, 3) or broadcast to
    it (one leg's three values for every leg, or one value), and the (4,) thrusts."""
    u = np.empty(NU)
    u[GRF], u[THRUST] = np.broadcast_to(grf, (4, 3)).reshape(12), thrust
    return u


def grf_of(u) -> np.ndarray:
    """The (4, 3) ground forces of the 16-vector input u, a view: writing it writes u."""
    return u[GRF].reshape(4, 3)


def thruster_oracle(params, leg: int, q) -> np.ndarray:
    """Body-frame thruster point of one leg at angles q: FK's knee, pushed
    outboard along the abducted leg's y axis by the mount offset."""
    _, knee = leg_forward_kinematics(params, leg, q)
    return knee + rot_x(q[0]) @ np.array([0.0, LEG_SIDE_SIGN[leg] * params.thruster_knee_offset, 0.0])


class BundledRun(NamedTuple):
    """A bundled scenario run through the CLI: its exit code, output directory,
    wall time, log (rounded in place by to_csv), failure and recorded events."""

    code: int
    out: Path
    wall_s: float
    log: SimLog
    failure: FailureEvent | None
    events: list


@pytest.fixture(scope="session")
def bundled_runs(request, tmp_path_factory):
    """Each unmodified bundled scenario run once per session, on demand, through
    cli.main(["run", name, "--out", dir]): name -> BundledRun. The run records
    the CLI's run call and, of the selected tests, each target (owner, name)
    that a mark reads_events(scenario, *targets) names for it, and no other."""
    cache, reads = {}, {}
    for item in request.session.items:
        for mark in item.iter_markers("reads_events"):
            reads.setdefault(mark.args[0], set()).update(mark.args[1:])

    def _run(name: str) -> BundledRun:
        if name not in cache:
            out = tmp_path_factory.mktemp(f"run_{name}")
            start = time.perf_counter()
            with recording((cli, "run"), *reads.get(name, ())) as events:
                code = cli.main(["run", name, "--out", str(out)])
            wall_s = time.perf_counter() - start
            ((_, (log, failure)),) = returns(events, "run")
            cache[name] = BundledRun(code, out, wall_s, log, failure, events)
        return cache[name]

    return _run


def read_summary(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "summary.json").read_text())


def objective(problem, x):
    """The QP's objective 0.5 x'Px + q'x at x."""
    return 0.5 * x @ problem.P @ x + problem.q @ x


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
