"""Acceptance suite: each test states its criterion and prints a PASS line."""

import numpy as np

from conftest import pgd_oracle, read_summary
from huskysim import cli, qp
from huskysim.dynamics import ControlInput, RobotState, build_continuous_model, discretize
from huskysim.gait import build_swing_curve, eval_swing
from huskysim.mpc import (
    Command,
    MpcConfig,
    MpcController,
    assemble_qp,
    build_reference,
    constraint_layout,
    horizon_weights,
)
from huskysim.robot import (
    RobotParams,
    leg_forward_kinematics,
    leg_inverse_kinematics,
    leg_jacobian,
)
from huskysim.sim import SimLog, step

col = SimLog.HEADER.index
PUSH_END = 1.5  # s, disturbance window is 1.0 .. 1.5


def test_criterion_1_push_recovery_dichotomy(timed_cli_runs, scenario_walltimes):
    code_with, out_with = timed_cli_runs("push_with_thrust")
    code_without, out_without = timed_cli_runs("push_no_thrust")

    assert code_with == 0, "with thrusters the push run must succeed"
    summary = read_summary(out_with)
    assert summary["recovery_time_s"] is not None
    assert summary["recovery_time_s"] < 1.5

    assert code_without == 2, "without thrusters the push run must fail"
    failure = read_summary(out_without)["failure"]
    assert failure is not None and failure["t_s"] < 3.0

    for name in ("push_with_thrust", "push_no_thrust"):
        assert scenario_walltimes[name] < 60.0
    print(
        f"PASS criterion 1: with-thrust recovery {summary['recovery_time_s']:.2f}s "
        f"after push end; no-thrust {failure['kind']} at t={failure['t_s']:.2f}s; "
        f"walltimes {scenario_walltimes['push_with_thrust']:.1f}s / "
        f"{scenario_walltimes['push_no_thrust']:.1f}s"
    )


def test_criterion_2_thrust_cap_and_side(timed_cli_runs):
    _, out = timed_cli_runs("push_with_thrust")
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


def test_criterion_3_beam_walk(timed_cli_runs):
    code, out = timed_cli_runs("beam_walk")
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


def _random_condensed_instance(rng, params):
    horizon = int(rng.integers(1, 4))
    cfg = MpcConfig(
        horizon=horizon,
        dt=float(rng.uniform(0.02, 0.06)),
        q_diag=np.concatenate([rng.uniform(0.5, 100.0, 12), [0.0]]),
        r_diag=rng.uniform(0.05, 1.0, 16),
        mu=float(rng.uniform(0.3, 0.8)),
        u_t_max=20.0,
    )
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
    return assemble_qp(state, stance_seq, model, ref, cfg, constraint_layout(cfg), horizon_weights(cfg))[0]


def test_criterion_4_mpc_qp_correctness():
    params = RobotParams()
    rng = np.random.default_rng(2024)
    worst_obj, worst_kkt = 0.0, 0.0
    for _ in range(50):
        prob = _random_condensed_instance(rng, params)
        sol = qp.solve(prob)
        x_oracle = pgd_oracle(prob.P, prob.q, prob.G, prob.h)
        obj_oracle = 0.5 * x_oracle @ prob.P @ x_oracle + prob.q @ x_oracle
        worst_obj = max(worst_obj, abs(sol.objective_value - obj_oracle))
        worst_kkt = max(worst_kkt, qp.check_kkt(prob, sol).max_residual())
    assert worst_obj < 1e-6
    assert worst_kkt < 1e-6

    # horizon-1 unconstrained closed form
    tilted = RobotParams()
    dirs = np.array([[0.0, -0.6, 0.8], [0.0, 0.6, 0.8], [0.0, -0.6, 0.8], [0.0, 0.6, 0.8]])
    tilted.thrust_dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    cfg = MpcConfig(horizon=1, mu=0.9)
    state = RobotState(p=np.array([0.0, 0.0, 0.23]))
    d = tilted.hip_offsets.copy()
    d[:, 2] = -0.23
    r = d * 0.5
    stance = np.ones(4, dtype=bool)
    A, B = build_continuous_model(state, d, r, tilted)
    model = discretize(A, B, cfg.dt)
    ref = build_reference(state, Command(height=0.25), cfg)
    controller = MpcController(cfg)
    u = controller.step(state, [stance], discretize(A, B[None], cfg.dt), ref)
    assert controller.last_solution.active_set == []
    Q, R = np.diag(cfg.q_diag), np.diag(cfg.r_diag)
    closed = -np.linalg.solve(
        model.B_k.T @ Q @ model.B_k + R,
        model.B_k.T @ Q @ (model.A_k @ state.as_vector() - ref[0]),
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
        model = discretize(A, B, 1e-3)
        x_lin = model.A_k @ state.as_vector() + model.B_k @ u.as_vector()
        x_plant = RobotState.from_vector(step(state, u, d, r, np.zeros(3), params, 1e-3)[0]).as_vector()
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


def test_criterion_6_determinism(tmp_path_factory):
    logs = []
    for tag in ("first", "second"):
        out = tmp_path_factory.mktemp(f"det_{tag}")
        code = cli.main(["run", "push_no_thrust", "--out", str(out)])
        assert code == 2
        logs.append((out / "log.csv").read_bytes())
    assert logs[0] == logs[1]
    print(f"PASS criterion 6: two runs byte-identical ({len(logs[0])} bytes)")
