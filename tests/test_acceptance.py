"""Acceptance suite: each test states its criterion and prints a PASS line."""

import numpy as np
import pytest

from conftest import load_bundled, objective, pgd_oracle, read_summary, recording, returns, run_doc
from huskysim import cli, qp
from huskysim.dynamics import ControlInput, RobotState, build_continuous_model, discretize
from huskysim.gait import build_swing_curve, eval_swing
from huskysim.mpc import (
    Command,
    MpcConfig,
    MpcController,
    assemble_qp,
    build_reference,
)
from huskysim.robot import (
    RobotParams,
    leg_forward_kinematics,
    leg_inverse_kinematics,
    leg_jacobian,
)
from huskysim.sim import HEIGHT_COLLAPSE, SimLog, step

col = SimLog.HEADER.index
PUSH_END = 1.5  # s, disturbance window is 1.0 .. 1.5


def test_criterion_1_push_recovery_dichotomy(bundled_runs):
    code_with, out_with, wall_with = bundled_runs("push_with_thrust")[:3]
    code_without, out_without, wall_without = bundled_runs("push_no_thrust")[:3]

    assert code_with == 0, "with thrusters the push run must succeed"
    summary = read_summary(out_with)
    assert summary["recovery_time_s"] is not None
    assert summary["recovery_time_s"] < 1.5

    assert code_without == 2, "without thrusters the push run must fail"
    failure = read_summary(out_without)["failure"]
    assert failure is not None and failure["t_s"] < 3.0

    assert wall_with < 60.0 and wall_without < 60.0
    print(
        f"PASS criterion 1: with-thrust recovery {summary['recovery_time_s']:.2f}s "
        f"after push end; no-thrust {failure['kind']} at t={failure['t_s']:.2f}s; "
        f"walltimes {wall_with:.1f}s / {wall_without:.1f}s"
    )


def test_criterion_2_thrust_cap_and_side(bundled_runs):
    out = bundled_runs("push_with_thrust").out
    data = SimLog.from_csv(out / "log.csv").as_array()
    thrust = data[:, col("thrust0") : col("thrust0") + 4]
    assert thrust.max() <= 20.0 + 1e-6

    t = data[:, col("t")]
    window = (t >= 1.0) & (t < PUSH_END)
    # the push is +y; the opposing side is the left pair (legs 0 and 2),
    # whose thrust direction is -y in the body frame
    left = thrust[window][:, [0, 2]].sum()
    right = thrust[window][:, [1, 3]].sum()
    assert left > right
    print(
        f"PASS criterion 2: peak thrust {thrust.max():.2f} N <= 20; "
        f"disturbance-window left/right thrust impulse {left:.0f}/{right:.0f}"
    )


def test_criterion_3_beam_walk(bundled_runs):
    code, out = bundled_runs("beam_walk")[:2]
    assert code == 0
    data = SimLog.from_csv(out / "log.csv").as_array()

    half = 0.05
    for leg in range(4):
        stance = data[:, col(f"stance{leg}")] > 0.5
        foot_y = data[:, col(f"foot{leg}y")]
        foot_z = data[:, col(f"foot{leg}z")]
        assert np.all(np.abs(foot_y[stance]) <= half + 1e-12)
        assert np.allclose(foot_z[stance], 0.1, atol=1e-9)

    thrust = data[:, col("thrust0") : col("thrust0") + 4]
    assert thrust.max() <= 20.0 + 1e-6

    mu_limit = read_summary(out)["mu_limit"]
    ratios = data[:, col("ratio0") : col("ratio0") + 4]
    assert ratios.max() <= mu_limit + 1e-9

    soft = "meets" if thrust.max() <= 7.0 else "exceeds"
    print(
        f"PASS criterion 3: beam walk success; stance feet on the 0.1 m top face; "
        f"peak thrust {thrust.max():.2f} N ({soft} the 7 N soft target); "
        f"peak friction ratio {ratios.max():.3f} <= mu {mu_limit}"
    )


@pytest.mark.parametrize("width, outcome", [(0.1, HEIGHT_COLLAPSE), (0.3, None)], ids=["bundled", "wide"])
def test_narrow_path_needs_the_thrusters(width, outcome):
    """The paper's narrow-path claim: beam_walk with its thrusters off
    (mpc.u_t_max_n 0) falls from the bundled 0.1 m beam, its COM sinking at
    2.85 s, while on a 0.3 m beam the same run walks all 10 s. The failure
    time is held to one control tick (0.01 s)."""
    doc = load_bundled("beam_walk")
    doc["mpc"]["u_t_max_n"], doc["terrain"]["width_m"] = 0.0, width
    log, failure = run_doc(doc)
    if outcome is None:
        assert failure is None and log.n == 10000
    else:
        assert failure.kind == outcome and abs(failure.t - 2.85) <= 0.01


@pytest.mark.parametrize("name, force, outcome", [("push_with_thrust", 46.0, None),
                                                  ("push_no_thrust", 18.0, HEIGHT_COLLAPSE)])
def test_push_margins_bracket_the_bundled_push(name, force, outcome):
    """The paper's push claim as margins around criterion 1's 40 N: with its
    thrusters the robot survives a 46 N lateral push over 1.0-1.5 s; without
    them an 18 N push brings it down (its COM sinks at 1.92 s)."""
    doc = load_bundled(name)
    doc["disturbances"][0]["force_n"] = [0.0, force, 0.0]
    _, failure = run_doc(doc)
    assert (None if failure is None else failure.kind) == outcome


def _random_condensed_instance(rng, params):
    horizon = int(rng.integers(1, 4))
    cfg = MpcConfig(
        horizon=horizon,
        dt=float(rng.uniform(0.02, 0.06)),
        q_diag=np.concatenate([rng.uniform(0.5, 100.0, 12), [0.0]]),
        r_diag=rng.uniform(0.05, 1.0, 16),
        u_t_max=20.0,
    )
    mu_real = float(rng.uniform(0.3, 0.8)) / 0.707  # pyramid slopes 0.3 to 0.8
    state = RobotState(
        theta=rng.uniform(-0.05, 0.05, 3),
        p=rng.normal(size=3) * 0.1 + [0.0, 0.0, 0.25],
        omega=rng.uniform(-0.5, 0.5, 3),
        pdot=rng.uniform(-0.5, 0.5, 3),
    )
    d = params.hip_offsets + rng.uniform(-0.05, 0.05, (4, 3))
    d[:, 2] = -0.25
    r = d * 0.5
    stance_seq = [rng.random(4) < 0.7 for _ in range(horizon)]
    A, B = build_continuous_model(state, d, r, params)
    model = discretize(A, np.repeat(B[None], horizon, axis=0), cfg.dt)
    ref = build_reference(state, Command(v_d=rng.uniform(-0.3, 0.3, 3), height=0.25), cfg)
    return assemble_qp(state, stance_seq, model, ref, MpcController(cfg, mu_real))[0]


def test_criterion_4_mpc_qp_correctness():
    params = RobotParams()
    rng = np.random.default_rng(2024)
    worst_obj, worst_kkt = 0.0, 0.0
    for _ in range(50):
        prob = _random_condensed_instance(rng, params)
        sol = qp.solve(prob)
        x_oracle = pgd_oracle(prob.P, prob.q, prob.G, prob.h)
        worst_obj = max(worst_obj, abs(objective(prob, sol.x_star) - objective(prob, x_oracle)))
        worst_kkt = max(worst_kkt, qp.check_kkt(prob, sol).max_residual())
    assert worst_obj < 1e-6
    assert worst_kkt < 1e-6

    # horizon-1 unconstrained closed form
    tilted = RobotParams()
    dirs = np.array([[0.0, -0.6, 0.8], [0.0, 0.6, 0.8], [0.0, -0.6, 0.8], [0.0, 0.6, 0.8]])
    tilted.thrust_dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    cfg = MpcConfig(horizon=1)
    state = RobotState(p=np.array([0.0, 0.0, 0.23]))
    d = tilted.hip_offsets.copy()
    d[:, 2] = -0.23
    r = d * 0.5
    stance = np.ones(4, dtype=bool)
    A, B = build_continuous_model(state, d, r, tilted)
    A_k, B_k = discretize(A, B, cfg.dt)
    ref = build_reference(state, Command(height=0.25), cfg)
    controller = MpcController(cfg, 1.3)  # a pyramid of slope 0.92
    with recording((qp, "solve")) as events:
        u = controller.step(state, [stance], discretize(A, B[None], cfg.dt), ref)
    assert returns(events, "solve")[0][1].active_set == []
    Q, R = np.diag(cfg.q_diag), np.diag(cfg.r_diag)
    closed = -np.linalg.solve(
        B_k.T @ Q @ B_k + R,
        B_k.T @ Q @ (A_k @ state.as_vector() - ref[0]),
    )
    closed_err = np.abs(u.as_vector() - closed).max()
    assert closed_err < 1e-6
    print(
        f"PASS criterion 4: 50 condensed instances, worst |obj - oracle| {worst_obj:.2e}, "
        f"worst KKT {worst_kkt:.2e}, closed-form error {closed_err:.2e}"
    )


def test_criterion_5_dynamics_fidelity():
    params = RobotParams()
    rng = np.random.default_rng(99)

    # plant vs linear model, one step at small angles
    weight = params.mass * params.gravity
    worst_step = 0.0
    for _ in range(50):
        state = RobotState(
            theta=rng.uniform(-0.02, 0.02, 3),
            p=rng.normal(size=3),
            omega=rng.uniform(-0.2, 0.2, 3),
            pdot=rng.uniform(-0.3, 0.3, 3),
        )
        d = params.hip_offsets + rng.uniform(-0.03, 0.03, (4, 3))
        d[:, 2] = -0.25
        r = d * 0.5
        grf = rng.uniform(-5, 5, (4, 3))
        grf[:, 2] += weight / 4
        u = ControlInput(grf=grf, thrust=rng.uniform(0, 0.5, 4))
        A, B = build_continuous_model(state, d, r, params)
        A_k, B_k = discretize(A, B, 1e-3)
        x_lin = A_k @ state.as_vector() + B_k @ u.as_vector()
        states, _ = step(state, u, d, r, np.zeros(3), params, 1e-3, 0.0, -np.inf)
        x_plant = RobotState.from_vector(states[1]).as_vector()
        worst_step = max(worst_step, np.abs(x_plant - x_lin).max())
    assert worst_step < 1e-4

    # analytic Jacobian vs central differences at 100 random poses
    worst_jac = 0.0
    for _ in range(100):
        leg = rng.integers(0, 4)
        q = rng.uniform([-0.7, -1.8, -2.4], [0.7, 1.8, -0.1])
        J = leg_jacobian(params, leg, q)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = 1e-6
            fp, _ = leg_forward_kinematics(params, leg, q + dq)
            fm, _ = leg_forward_kinematics(params, leg, q - dq)
            worst_jac = max(worst_jac, np.abs(J[:, j] - (fp - fm) / 2e-6).max())
    assert worst_jac < 1e-5

    # Bezier endpoint velocities are exactly zero
    curve = build_swing_curve(rng.normal(size=3), rng.normal(size=3), 0.05)
    _, v0 = eval_swing(curve, 0.0)
    _, v1 = eval_swing(curve, 1.0)
    assert np.all(v0 == 0.0) and np.all(v1 == 0.0)

    # FK -> IK -> FK round trip
    worst_ik = 0.0
    for _ in range(50):
        leg = rng.integers(0, 4)
        q_true = rng.uniform([-0.6, -1.2, -2.2], [0.6, 1.2, -0.3])
        target, _ = leg_forward_kinematics(params, leg, q_true)
        q = leg_inverse_kinematics(params, leg, target, np.array([0.0, 0.3, -0.8]))
        foot, _ = leg_forward_kinematics(params, leg, q)
        worst_ik = max(worst_ik, float(np.linalg.norm(foot - target)))
    assert worst_ik < 1e-4

    print(
        f"PASS criterion 5: plant/model step diff {worst_step:.2e} < 1e-4; "
        f"Jacobian vs FD {worst_jac:.2e} < 1e-5; Bezier endpoint velocity exactly 0; "
        f"FK/IK round trip {worst_ik:.2e} m < 1e-4"
    )


def test_criterion_6_determinism(bundled_runs, tmp_path):
    """The session's push_no_thrust run and a second one write the same log.csv."""
    first = bundled_runs("push_no_thrust")
    code = cli.main(["run", "push_no_thrust", "--out", str(tmp_path)])
    assert first.code == code == 2
    logs = [(out / "log.csv").read_bytes() for out in (first.out, tmp_path)]
    assert logs[0] == logs[1]
    print(f"PASS criterion 6: two runs byte-identical ({len(logs[0])} bytes)")
