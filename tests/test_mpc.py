import numpy as np
import pytest
from scipy.optimize import nnls

from conftest import load_bundled, pgd_oracle
from huskysim import cli, config, qp
from huskysim.dynamics import NU, RobotState, build_continuous_model, discretize
from huskysim.mpc import (
    Command,
    DimensionMismatch,
    MpcConfig,
    MpcController,
    assemble_qp,
    build_reference,
    condense,
    constraint_layout,
    free_layout,
    horizon_weights,
    input_constraints,
)
from huskysim.robot import RobotParams
from huskysim.sim import run


@pytest.fixture
def params():
    return RobotParams()


def stand_geometry(params, height=0.25):
    d = params.hip_offsets.copy()
    d[:, 2] = -height
    r = d * np.array([1.0, 1.0, 0.5])
    return d, r


def make_model(state, d, r, stance_seq, cfg, params):
    """The horizon model with the same lever arms at every step."""
    A, B = build_continuous_model(state, d, r, params)
    return discretize(A, np.repeat(B[None], len(stance_seq), axis=0), cfg.dt)


def layout_rows(stance_seq, cfg):
    """Each QP row's index in the controller's constraint layout."""
    return free_layout(constraint_layout(cfg), stance_seq, cfg)[3]


def cold_step(state, stance_seq, d, r, ref, cfg, params):
    """One cold-started controller step with the model frozen at the d, r snapshot."""
    return MpcController(cfg).step(state, stance_seq, make_model(state, d, r, stance_seq, cfg, params), ref)


def test_reference_hold_position():
    state = RobotState(p=np.array([1.0, 2.0, 0.25]))
    cfg = MpcConfig(horizon=3)
    ref = build_reference(state, Command(height=0.25), cfg)
    assert ref.shape == (3, 13)
    assert np.allclose(ref[:, 3], 1.0)
    assert np.allclose(ref[:, 4], 2.0)
    assert np.allclose(ref[:, 5], 0.25)
    assert np.allclose(ref[:, 0:2], 0.0)
    assert np.allclose(ref[:, 12], 1.0)


def test_reference_integrates_velocity():
    cfg = MpcConfig(horizon=5, dt=0.03)
    ref = build_reference(RobotState(), Command(v_d=np.array([0.1, 0.0, 0.0])), cfg)
    assert ref[2, 3] == pytest.approx(0.009, abs=1e-15)  # k = 3 steps ahead
    assert np.allclose(ref[:, 9], 0.1)


def test_reference_integrates_yaw_rate():
    cfg = MpcConfig(horizon=3, dt=0.03)
    ref = build_reference(RobotState(), Command(yaw_rate=0.5), cfg)
    assert ref[1, 2] == pytest.approx(0.03, abs=1e-15)  # k = 2 steps ahead
    assert np.allclose(ref[:, 8], 0.5)


def test_constraint_rows_all_swing():
    cfg = MpcConfig(horizon=1)
    G, h = input_constraints([np.zeros(4, dtype=bool)], cfg)
    assert G.shape == (8, 4)  # swing forces are not variables; two bound rows per thrust
    assert np.array_equal(h, [cfg.u_t_max, 0.0] * 4)
    G, h = input_constraints([np.zeros(4, dtype=bool)], MpcConfig(horizon=1, thrusters_enabled=False))
    assert G.shape == (0, 0) and h.shape == (0,)


def test_constraint_rows_trot_step():
    cfg = MpcConfig(horizon=1)
    stance = np.array([True, False, False, True])
    G, h = input_constraints([stance], cfg)
    assert G.shape == (2 * 4 + 4 * 2, 2 * 3 + 4)  # 16 rows over 10 free inputs per trot step
    # friction rows reference only that leg's force entries
    assert np.count_nonzero(G[:4, 3:]) == 0 and np.count_nonzero(G[4:8, :3]) == 0
    assert np.all(h >= 0.0)
    free = free_layout(constraint_layout(cfg), [stance], cfg)[0]
    assert np.array_equal(np.flatnonzero(free), [0, 1, 2, 9, 10, 11, 12, 13, 14, 15])


def test_constraint_rows_name_each_row():
    """Index j of the full layout is step j // 24; within a step, legs 0-3 hold
    rows 0-15 (four pyramid faces each) and thrusters 4-7 rows 16-23 (upper,
    then lower bound)."""
    rng = np.random.default_rng(12)
    for trial in range(6):
        cfg = MpcConfig(mu=0.4, u_t_max=15.0, thrusters_enabled=bool(trial % 2))
        stance_seq = [rng.random(4) < 0.5 for _ in range(cfg.horizon)]
        G, h = input_constraints(stance_seq, cfg)
        free, _, _, rows = free_layout(constraint_layout(cfg), stance_seq, cfg)
        assert len(rows) == G.shape[0] == 4 * np.count_nonzero(stance_seq) + 8 * cfg.horizon * (trial % 2)
        assert np.all(np.diff(rows) > 0)
        column = np.cumsum(free) - 1  # QP column of each entry of U
        pyramid = np.array([[1.0, 0.0, -0.4], [-1.0, 0.0, -0.4], [0.0, 1.0, -0.4], [0.0, -1.0, -0.4]])
        for row, index in enumerate(rows.tolist()):
            k, j = divmod(index, 24)
            expected = np.zeros(G.shape[1])
            if j < 16:
                leg, face = divmod(j, 4)
                assert stance_seq[k][leg]
                expected[column[k * NU + 3 * leg + np.arange(3)]] = pyramid[face]
                assert h[row] == 0.0
            else:
                thruster, bound = divmod(j - 16, 2)
                assert cfg.thrusters_enabled
                expected[column[k * NU + 12 + thruster]] = (1.0, -1.0)[bound]
                assert h[row] == (15.0, 0.0)[bound]
            assert np.array_equal(G[row], expected)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def loop_layout(stance_seq, cfg):
    """The free inputs, G, h and layout rows as a loop over the free units
    builds them: the reference for the selection from the constant layout."""
    stance = np.asarray(stance_seq, dtype=bool)
    free = np.hstack([stance, np.full((len(stance), 4), cfg.thrusters_enabled)])
    n_in, n_rows = (3, 3, 3, 3, 1, 1, 1, 1), (4, 4, 4, 4, 2, 2, 2, 2)
    mu = cfg.mu
    blocks = (np.array([[1.0, 0.0, -mu], [-1.0, 0.0, -mu], [0.0, 1.0, -mu], [0.0, -1.0, -mu]]),
              np.array([[1.0], [-1.0]]))
    G = np.zeros((free.sum(axis=0) @ n_rows, free.sum(axis=0) @ n_in))
    h = np.zeros(G.shape[0])
    row = col = 0
    for unit in (np.flatnonzero(free) % 8).tolist():
        G[row : row + n_rows[unit], col : col + n_in[unit]] = blocks[unit // 4]
        if unit >= 4:
            h[row] = cfg.u_t_max
        row, col = row + n_rows[unit], col + n_in[unit]
    inputs = np.repeat(free, n_in, axis=1).reshape(-1)
    return inputs, G, h, np.flatnonzero(np.repeat(free, n_rows, axis=1))


def test_selection_from_constant_layout_is_the_loop_layout(params):
    """G, h and row indices taken from the controller's constant layout by one
    free mask are bit for bit those of the loop over free units, for random
    horizon stance, thrusters on and off, at two thrust caps."""
    rng = np.random.default_rng(20)
    state = RobotState(p=np.array([0.0, 0.0, 0.25]))
    d, r = stand_geometry(params)
    for trial in range(40):
        cfg = MpcConfig(horizon=int(rng.integers(1, 7)), mu=float(rng.uniform(0.2, 0.9)),
                        u_t_max=(20.0, 7.5)[trial % 2], thrusters_enabled=bool(trial // 2 % 2))
        stance_seq = rng.random((cfg.horizon, 4)) < rng.uniform(0.0, 1.0)
        expected = loop_layout(stance_seq, cfg)
        layout = constraint_layout(cfg)
        got = free_layout(layout, stance_seq, cfg)
        assert all(same_bits(a, b) for a, b in zip(got, expected))
        model = make_model(state, d, r, stance_seq, cfg, params)
        ref = build_reference(state, Command(), cfg)
        problem, inputs, rows = assemble_qp(state, stance_seq, model, ref, cfg, layout, horizon_weights(cfg))
        assert all(same_bits(a, b) for a, b in zip((inputs, problem.G, problem.h, rows), expected))
        assert all(same_bits(a, b) for a, b in zip(input_constraints(stance_seq, cfg), expected[1:3]))


def test_zero_input_always_feasible(params):
    cfg = MpcConfig()
    rng = np.random.default_rng(0)
    for _ in range(10):
        stance_seq = [rng.random(4) < 0.5 for _ in range(cfg.horizon)]
        G, h = input_constraints(stance_seq, cfg)
        assert np.all(h >= 0.0)  # U = 0 satisfies G U <= h


def test_swing_columns_pinned(params):
    cfg = MpcConfig(horizon=1)
    state = RobotState(p=np.array([0.0, 0.0, 0.25]))
    d, r = stand_geometry(params)
    stance = np.array([True, False, True, False])
    ref = build_reference(state, Command(height=0.25), cfg)
    u = cold_step(state, [stance], d, r, ref, cfg, params)
    assert np.all(u.grf[1] == 0.0)
    assert np.all(u.grf[3] == 0.0)


def test_unconstrained_closed_form(params):
    """With an interior optimum, the QP equals -(B'QB+R)^-1 B'Q (A x0 - x_r)."""
    tilted = RobotParams()
    dirs = np.array([[0.0, -0.6, 0.8], [0.0, 0.6, 0.8], [0.0, -0.6, 0.8], [0.0, 0.6, 0.8]])
    tilted.thrust_dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    cfg = MpcConfig(horizon=1, mu=0.9)
    state = RobotState(p=np.array([0.0, 0.0, 0.23]))  # slightly low: wants lift
    d, r = stand_geometry(tilted, height=0.23)
    stance = np.ones(4, dtype=bool)
    ref = build_reference(state, Command(height=0.25), cfg)

    model = make_model(state, d, r, [stance], cfg, tilted)
    controller = MpcController(cfg)
    u = controller.step(state, [stance], model, ref)
    sol = controller.last_solution
    assert sol.active_set == []  # interior optimum, nothing binding

    A_k, B_k = model.A_k, model.B_k[0]
    Q = np.diag(cfg.q_diag)
    R = np.diag(cfg.r_diag)
    x0 = state.as_vector()
    closed = -np.linalg.solve(B_k.T @ Q @ B_k + R, B_k.T @ Q @ (A_k @ x0 - ref[0]))
    assert np.abs(u.as_vector() - closed).max() < 1e-6


def test_static_stand_force_balance(params):
    cfg = MpcConfig()
    state = RobotState(p=np.array([0.0, 0.0, 0.25]))
    d, r = stand_geometry(params)
    stance = np.ones(4, dtype=bool)
    ref = build_reference(state, Command(height=0.25), cfg)
    u = cold_step(state, [stance] * cfg.horizon, d, r, ref, cfg, params)
    weight = params.mass * params.gravity
    assert abs(u.grf[:, 2].sum() - weight) / weight < 0.02
    assert np.abs(u.thrust).max() < 0.5


def test_roll_rate_engages_opposing_thrusters(params):
    # diagonal stance with negligible friction makes the thrusters the only
    # roll actuator, so the engaged side is a clean sign check
    cfg = MpcConfig(mu=0.01)
    d, r = stand_geometry(params)
    stance = np.array([True, False, False, True])
    for wx, expect_left in ((2.0, True), (-2.0, False)):
        state = RobotState(p=np.array([0.0, 0.0, 0.25]), omega=np.array([wx, 0.0, 0.0]))
        ref = build_reference(state, Command(height=0.25), cfg)
        u = cold_step(state, [stance] * cfg.horizon, d, r, ref, cfg, params)
        left = u.thrust[0] + u.thrust[2]
        right = u.thrust[1] + u.thrust[3]
        assert (left > right + 1.0) == expect_left
        # torque model cross-check: the commanded thrust opposes the roll rate
        tau_x = sum(np.cross(r[i], params.thrust_dirs[i] * u.thrust[i])[0] for i in range(4))
        assert np.sign(tau_x) == -np.sign(wx)


def test_height_only_weights_give_symmetric_forces(params):
    q_diag = np.zeros(13)
    q_diag[5] = 800.0
    cfg = MpcConfig(q_diag=q_diag)
    state = RobotState(p=np.array([0.0, 0.0, 0.24]))
    d, r = stand_geometry(params, height=0.24)
    stance = np.ones(4, dtype=bool)
    ref = build_reference(state, Command(height=0.25), cfg)
    u = cold_step(state, [stance] * cfg.horizon, d, r, ref, cfg, params)
    uz = u.grf[:, 2]
    assert np.abs(uz - uz.mean()).max() < 1e-6
    assert uz.mean() > 10.0


def test_returned_input_respects_constraints(params):
    cfg = MpcConfig()
    rng = np.random.default_rng(7)
    for _ in range(5):
        state = RobotState(
            theta=rng.uniform(-0.1, 0.1, 3),
            p=np.array([0.0, 0.0, 0.25]) + rng.uniform(-0.03, 0.03, 3),
            omega=rng.uniform(-0.5, 0.5, 3),
            pdot=rng.uniform(-0.3, 0.3, 3),
        )
        d, r = stand_geometry(params)
        stance = np.array([True, False, False, True])
        ref = build_reference(state, Command(height=0.25), cfg)
        u = cold_step(state, [stance] * cfg.horizon, d, r, ref, cfg, params)
        for i in range(4):
            if stance[i]:
                assert u.grf[i, 2] >= -1e-8
                assert abs(u.grf[i, 0]) <= cfg.mu * u.grf[i, 2] + 1e-8
                assert abs(u.grf[i, 1]) <= cfg.mu * u.grf[i, 2] + 1e-8
            else:
                assert np.all(u.grf[i] == 0.0)
            assert -1e-8 <= u.thrust[i] <= cfg.u_t_max + 1e-8


def test_thrusters_disabled_pins_thrust(params):
    cfg = MpcConfig(thrusters_enabled=False)
    state = RobotState(p=np.array([0.0, 0.0, 0.25]), omega=np.array([0.8, 0.0, 0.0]))
    d, r = stand_geometry(params)
    stance = np.ones(4, dtype=bool)
    ref = build_reference(state, Command(height=0.25), cfg)
    u = cold_step(state, [stance] * cfg.horizon, d, r, ref, cfg, params)
    assert np.all(u.thrust == 0.0)


def test_dimension_mismatch(params):
    cfg = MpcConfig(horizon=5)
    state = RobotState(p=np.array([0.0, 0.0, 0.25]))
    d, r = stand_geometry(params)
    stance = np.ones(4, dtype=bool)
    ref = build_reference(state, Command(), cfg)
    model = make_model(state, d, r, [stance] * 3, cfg, params)  # wrong length
    with pytest.raises(DimensionMismatch):
        assemble_qp(state, [stance] * 3, model, ref, cfg, constraint_layout(cfg), horizon_weights(cfg))


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(horizon=0)
    with pytest.raises(ValueError):
        MpcConfig(r_diag=np.zeros(16))
    cfg = config.load(MpcConfig, {"horizon": 3, "dt_s": 0.05, "mu": 0.4})
    assert cfg.horizon == 3 and cfg.dt == 0.05 and cfg.mu == 0.4


def pinned_qp(state, stance_seq, model, ref, cfg):
    """The QP over every input, each input that is not free held at zero by rows.

    Per stance leg: -u_z <= 0 and the friction pyramid. Per swing force
    entry: u <= 0 and -u <= 0. Per thrust: [0, u_t_max], or [0, 0] when
    thrusters are disabled.
    """
    n_h = len(stance_seq)
    T, S = condense(model)
    qbar = np.tile(cfg.q_diag, n_h)
    P = S.T @ (qbar[:, None] * S) + np.diag(np.tile(cfg.r_diag, n_h))
    q = S.T @ (qbar * (T @ state.as_vector() - ref.reshape(-1)))
    mu, cap = cfg.mu, (cfg.u_t_max if cfg.thrusters_enabled else 0.0)
    rows, rhs = [], []
    for k, stance in enumerate(stance_seq):
        for i in range(4):
            ix, iy, iz = k * NU + 3 * i + np.arange(3)
            if stance[i]:
                entries = [{iz: -1.0}, {ix: 1.0, iz: -mu}, {ix: -1.0, iz: -mu},
                           {iy: 1.0, iz: -mu}, {iy: -1.0, iz: -mu}]
            else:
                entries = [{idx: sign} for idx in (ix, iy, iz) for sign in (1.0, -1.0)]
            rows += entries
            rhs += [0.0] * len(entries)
        for it in k * NU + 12 + np.arange(4):
            rows += [{it: 1.0}, {it: -1.0}]
            rhs += [cap, 0.0]
    G = np.zeros((len(rows), n_h * NU))
    for j, entries in enumerate(rows):
        for idx, val in entries.items():
            G[j, idx] = val
    return qp.QpProblem(P=0.5 * (P + P.T), q=q, G=G, h=np.array(rhs))


def assert_reduced_qp_solves_pinned(state, stance_seq, model, ref, cfg):
    problem, free, _ = assemble_qp(state, stance_seq, model, ref, cfg, constraint_layout(cfg), horizon_weights(cfg))
    sol = qp.solve(problem)
    U = np.zeros(free.size)
    U[free] = sol.x_star
    full = pinned_qp(state, stance_seq, model, ref, cfg)

    def objective(x):
        return 0.5 * x @ full.P @ x + full.q @ x

    x_oracle = pgd_oracle(full.P, full.q, full.G, full.h)
    assert abs(objective(U) - objective(x_oracle)) < 1e-6
    # KKT of the full problem, with non-negative multipliers on the rows tight at U
    tight = full.G @ U - full.h > -1e-9
    lam = np.zeros(full.h.size)
    lam[tight] = nnls(full.G[tight].T, -(full.P @ U + full.q))[0]
    certificate = qp.QpSolution(U, np.flatnonzero(tight).tolist(), objective(U), sol.iterations, lam)
    assert qp.check_kkt(full, certificate).max_residual() < 1e-6


def test_reduced_qp_matches_pinned_formulation_random(params):
    rng = np.random.default_rng(11)
    for trial in range(24):
        cfg = MpcConfig(horizon=int(rng.integers(1, 6)), mu=float(rng.uniform(0.2, 0.9)),
                        thrusters_enabled=bool(trial % 2))
        state = RobotState(
            theta=rng.uniform(-0.1, 0.1, 3),
            p=np.array([0.0, 0.0, 0.25]) + rng.uniform(-0.03, 0.03, 3),
            omega=rng.uniform(-1.0, 1.0, 3),
            pdot=rng.uniform(-0.5, 0.5, 3),
        )
        d, r = stand_geometry(params)
        stance_seq = [rng.random(4) < 0.5 for _ in range(cfg.horizon)]
        if trial < 2:  # no stance leg at all; with thrusters off there is no QP variable
            stance_seq = [np.zeros(4, dtype=bool)] * cfg.horizon
        model = make_model(state, d, r, stance_seq, cfg, params)
        ref = build_reference(state, Command(v_d=rng.uniform(-0.3, 0.3, 3), height=0.25), cfg)
        assert_reduced_qp_solves_pinned(state, stance_seq, model, ref, cfg)


def test_reduced_qp_matches_pinned_formulation_recorded(monkeypatch):
    """Instances recorded from a closed-loop run across the push without thrusters."""
    doc = load_bundled("push_no_thrust")
    doc["duration_s"] = 1.45  # the push starts at 1.0 s; the robot rolls over at 1.453 s
    scenario, params, cfg, gait_cfg = cli.configs_from_doc(doc)
    recorded = []
    step = MpcController.step

    def recording_step(self, *args):
        recorded.append(args)
        return step(self, *args)

    monkeypatch.setattr(MpcController, "step", recording_step)
    run(scenario, params, cfg, gait_cfg)
    assert len(recorded) == 145
    for state, stance_seq, model, ref in recorded[90:]:  # from 0.9 s
        assert_reduced_qp_solves_pinned(state, stance_seq, model, ref, cfg)


def test_warm_starts_match_cold_recorded(monkeypatch):
    """Closed-loop QPs across the push with thrusters. The controller seeds the
    rows whose layout index (layout_rows) was active at the previous tick,
    and no others; that warm start and the previous tick's raw row indices
    (which name other rows after a stance change, some dependent on each
    other) both give the cold solution."""
    doc = load_bundled("push_with_thrust")
    doc["duration_s"] = 2.0  # the push acts from 1.0 s to 1.5 s
    scenario, params, cfg, gait_cfg = cli.configs_from_doc(doc)
    stance_seqs, solves = [], []
    step, solve = MpcController.step, qp.solve

    def recording_step(self, state, stance_seq, *args):
        stance_seqs.append(stance_seq)
        return step(self, state, stance_seq, *args)

    def recording_solve(problem, warm_active=None):
        solves.append((problem, warm_active, solve(problem, warm_active=warm_active)))
        return solves[-1][2]

    monkeypatch.setattr(MpcController, "step", recording_step)
    monkeypatch.setattr(qp, "solve", recording_solve)
    run(scenario, params, cfg, gait_cfg)
    monkeypatch.undo()
    failed_factors = []
    factor = qp.cho_factor

    def counting_factor(a):
        try:
            return factor(a)
        except np.linalg.LinAlgError:
            failed_factors.append(a)
            raise

    monkeypatch.setattr(qp, "cho_factor", counting_factor)
    assert len(solves) == 200
    for t in range(90, 200):  # from 0.9 s
        problem, warm, sol = solves[t]
        prev_active = layout_rows(stance_seqs[t - 1], cfg)[solves[t - 1][2].active_set]
        rows = layout_rows(stance_seqs[t], cfg)
        assert warm == [i for i, index in enumerate(rows) if index in prev_active]
        cold = qp.solve(problem)
        assert np.abs(sol.x_star - cold.x_star).max() <= 1e-8
        raw = qp.solve(problem, warm_active=solves[t - 1][2].active_set)
        assert np.abs(raw.x_star - cold.x_star).max() <= 1e-8
    assert failed_factors  # the raw indices did seed dependent rows
