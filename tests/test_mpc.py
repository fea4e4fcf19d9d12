import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from conftest import calls, load_bundled, objective, pgd_oracle, recording, returns, run_doc
from huskysim import cli, config, mpc, qp
from huskysim.dynamics import NU, RobotState, build_continuous_model, discretize
from huskysim.mpc import (
    Command,
    MpcConfig,
    MpcController,
    assemble_qp,
    build_reference,
    condense,
    input_constraints,
)
from huskysim.robot import RobotParams
from huskysim.sim import run

MU_REAL = 0.5  # the bundled ground; the controller's pyramid slope is 0.707 * 0.5 = 0.3535


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
    return MpcController(cfg, MU_REAL).horizon(stance_seq).rows


def cold_step(state, stance_seq, d, r, ref, cfg, params, mu_real=MU_REAL):
    """One cold-started controller step with the model frozen at the d, r snapshot."""
    model = make_model(state, d, r, stance_seq, cfg, params)
    return MpcController(cfg, mu_real).step(state, stance_seq, model, ref)


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
    G, h = input_constraints([np.zeros(4, dtype=bool)], cfg, MU_REAL)
    assert G.shape == (8, 4)  # swing forces are not variables; two bound rows per thrust
    assert np.array_equal(h, [cfg.u_t_max, 0.0] * 4)
    G, h = input_constraints([np.zeros(4, dtype=bool)], MpcConfig(horizon=1, u_t_max=0.0), MU_REAL)
    assert G.shape == (0, 0) and h.shape == (0,)  # a zero cap leaves no thrust in the QP


def test_constraint_rows_trot_step():
    cfg = MpcConfig(horizon=1)
    stance = np.array([True, False, False, True])
    G, h = input_constraints([stance], cfg, MU_REAL)
    assert G.shape == (2 * 4 + 4 * 2, 2 * 3 + 4)  # 16 rows over 10 free inputs per trot step
    # friction rows reference only that leg's force entries
    assert np.count_nonzero(G[:4, 3:]) == 0 and np.count_nonzero(G[4:8, :3]) == 0
    assert np.all(h >= 0.0)
    free = MpcController(cfg, MU_REAL).horizon([stance]).free
    assert np.array_equal(np.flatnonzero(free), [0, 1, 2, 9, 10, 11, 12, 13, 14, 15])


def test_constraint_rows_name_each_row():
    """Index j of the full layout is step j // 24; within a step, legs 0-3 hold
    rows 0-15 (four pyramid faces each) and thrusters 4-7 rows 16-23 (upper,
    then lower bound). The pyramid's slope is 0.707 mu_real, 0.3535 on the
    bundled ground; a zero thrust cap leaves no thruster rows."""
    rng = np.random.default_rng(12)
    for trial in range(6):
        cfg = MpcConfig(u_t_max=15.0 * (trial % 2))
        stance_seq = [rng.random(4) < 0.5 for _ in range(cfg.horizon)]
        G, h = input_constraints(stance_seq, cfg, MU_REAL)
        free, _, _, rows, _ = MpcController(cfg, MU_REAL).horizon(stance_seq)
        assert len(rows) == G.shape[0] == 4 * np.count_nonzero(stance_seq) + 8 * cfg.horizon * (trial % 2)
        assert np.all(np.diff(rows) > 0)
        column = np.cumsum(free) - 1  # QP column of each entry of U
        mu = 0.3535
        pyramid = np.array([[1.0, 0.0, -mu], [-1.0, 0.0, -mu], [0.0, 1.0, -mu], [0.0, -1.0, -mu]])
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
                assert cfg.u_t_max > 0
                expected[column[k * NU + 12 + thruster]] = (1.0, -1.0)[bound]
                assert h[row] == (15.0, 0.0)[bound]
            assert np.array_equal(G[row], expected)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def loop_layout(stance_seq, cfg, mu_real):
    """The free inputs, G, h and layout rows as a loop over the free units
    builds them: the reference for the selection from the constant layout."""
    stance = np.asarray(stance_seq, dtype=bool)
    free = np.hstack([stance, np.full((len(stance), 4), cfg.u_t_max > 0)])
    n_in, n_rows = (3, 3, 3, 3, 1, 1, 1, 1), (4, 4, 4, 4, 2, 2, 2, 2)
    mu = 0.707 * mu_real
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
    free mask are bit for bit those of the loop over free units, and its Rbar
    diagonal is r_diag's over the free inputs, for random horizon stance, at
    thrust caps of 20 N, 7.5 N and zero (thrusters off)."""
    rng = np.random.default_rng(20)
    state = RobotState(p=np.array([0.0, 0.0, 0.25]))
    d, r = stand_geometry(params)
    for trial in range(40):
        cfg = MpcConfig(horizon=int(rng.integers(1, 7)), u_t_max=(20.0, 7.5)[trial % 2] * (trial // 2 % 2))
        mu_real = float(rng.uniform(0.2, 0.9)) / 0.707  # pyramid slopes 0.2 to 0.9
        stance_seq = rng.random((cfg.horizon, 4)) < rng.uniform(0.0, 1.0)
        expected = loop_layout(stance_seq, cfg, mu_real)
        got = MpcController(cfg, mu_real).horizon(stance_seq)
        assert all(same_bits(a, b) for a, b in zip(got[:4], expected))
        assert same_bits(got.rbar, np.tile(cfg.r_diag, cfg.horizon)[expected[0]])
        model = make_model(state, d, r, stance_seq, cfg, params)
        ref = build_reference(state, Command(), cfg)
        problem, pattern = assemble_qp(state, stance_seq, model, ref, MpcController(cfg, mu_real))
        assert all(same_bits(a, b) for a, b in zip((pattern.free, problem.G, problem.h, pattern.rows), expected))
        assert all(same_bits(a, b) for a, b in zip(input_constraints(stance_seq, cfg, mu_real), expected[1:3]))


def test_zero_input_always_feasible(params):
    cfg = MpcConfig()
    rng = np.random.default_rng(0)
    for _ in range(10):
        stance_seq = [rng.random(4) < 0.5 for _ in range(cfg.horizon)]
        G, h = input_constraints(stance_seq, cfg, MU_REAL)
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


def test_step_input_is_the_first_steps_share_of_the_solution(params):
    """The controller's input is x* scattered over U by its pattern's mask and
    cut to the first step, then clipped to [0, cap] per thrust and to u_z >= 0
    per leg: in x*, the first step's stance legs' forces in leg order, then its
    thrusts when the cap is above 0. Random horizon stance, caps of 20 N and 0."""
    rng = np.random.default_rng(33)
    d, r = stand_geometry(params)
    for trial in range(24):
        cfg = MpcConfig(u_t_max=20.0 * (trial % 2))
        state = RobotState(theta=rng.uniform(-0.05, 0.05, 3), p=np.array([0.0, 0.0, 0.23]),
                           omega=rng.uniform(-0.5, 0.5, 3), pdot=rng.uniform(-0.5, 0.5, 3))
        stance_seq = rng.random((cfg.horizon, 4)) < 0.6
        ref = build_reference(state, Command(v_d=rng.uniform(-0.3, 0.3, 3), height=0.25), cfg)
        controller = MpcController(cfg, MU_REAL)
        with recording((qp, "solve")) as events:
            u = controller.step(state, stance_seq, make_model(state, d, r, stance_seq, cfg, params), ref)
        x_star = returns(events, "solve")[0][1].x_star.tolist()
        expected = np.zeros(NU)
        for leg in np.flatnonzero(stance_seq[0]).tolist():
            expected[3 * leg : 3 * leg + 3], x_star = x_star[:3], x_star[3:]
        if cfg.u_t_max > 0:
            expected[12:] = x_star[:4]
        expected[12:] = np.clip(expected[12:], 0.0, cfg.u_t_max)
        expected[2:12:3] = np.maximum(expected[2:12:3], 0.0)
        assert np.array_equal(u.as_vector(), expected)


def test_unconstrained_closed_form(params):
    """With an interior optimum, the QP equals -(B'QB+R)^-1 B'Q (A x0 - x_r)."""
    tilted = RobotParams()
    dirs = np.array([[0.0, -0.6, 0.8], [0.0, 0.6, 0.8], [0.0, -0.6, 0.8], [0.0, 0.6, 0.8]])
    tilted.thrust_dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    cfg = MpcConfig(horizon=1)
    state = RobotState(p=np.array([0.0, 0.0, 0.23]))  # slightly low: wants lift
    d, r = stand_geometry(tilted, height=0.23)
    stance = np.ones(4, dtype=bool)
    ref = build_reference(state, Command(height=0.25), cfg)

    model = make_model(state, d, r, [stance], cfg, tilted)
    controller = MpcController(cfg, 1.3)  # a pyramid of slope 0.92
    with recording((qp, "solve")) as events:
        u = controller.step(state, [stance], model, ref)
    (_, sol), = returns(events, "solve")
    assert sol.active_set == []  # interior optimum, nothing binding

    A_k, B_k = model[0], model[1][0]
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
    cfg = MpcConfig()
    d, r = stand_geometry(params)
    stance = np.array([True, False, False, True])
    for wx, expect_left in ((2.0, True), (-2.0, False)):
        state = RobotState(p=np.array([0.0, 0.0, 0.25]), omega=np.array([wx, 0.0, 0.0]))
        ref = build_reference(state, Command(height=0.25), cfg)
        u = cold_step(state, [stance] * cfg.horizon, d, r, ref, cfg, params, mu_real=0.014)
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
                assert abs(u.grf[i, 0]) <= 0.3535 * u.grf[i, 2] + 1e-8
                assert abs(u.grf[i, 1]) <= 0.3535 * u.grf[i, 2] + 1e-8
            else:
                assert np.all(u.grf[i] == 0.0)
            assert -1e-8 <= u.thrust[i] <= cfg.u_t_max + 1e-8


def test_thrusters_disabled_pins_thrust(params):
    cfg = MpcConfig(u_t_max=0.0)
    state = RobotState(p=np.array([0.0, 0.0, 0.25]), omega=np.array([0.8, 0.0, 0.0]))
    d, r = stand_geometry(params)
    stance = np.ones(4, dtype=bool)
    ref = build_reference(state, Command(height=0.25), cfg)
    u = cold_step(state, [stance] * cfg.horizon, d, r, ref, cfg, params)
    assert np.all(u.thrust == 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(horizon=0)
    with pytest.raises(ValueError):
        MpcConfig(r_diag=np.zeros(16))
    cfg = config.load(MpcConfig, {"horizon": 3, "dt_s": 0.05, "u_t_max_n": 0.0})
    assert cfg.horizon == 3 and cfg.dt == 0.05 and cfg.u_t_max == 0.0
    for key in ("mu", "thrusters_enabled"):  # the ground's mu_real and a zero cap say these
        with pytest.raises(config.ConfigError, match=f"unknown key '{key}'"):
            config.load(MpcConfig, {key: 0.4})


def pinned_qp(state, stance_seq, model, ref, cfg, mu_real):
    """The QP over every input, each input that is not free held at zero by rows.

    Per stance leg: -u_z <= 0 and the friction pyramid of slope 0.707 mu_real.
    Per swing force entry: u <= 0 and -u <= 0. Per thrust: [0, u_t_max], which
    is [0, 0] at a zero cap.
    """
    n_h = len(stance_seq)
    T, S = condense(model)
    qbar = np.tile(cfg.q_diag, n_h)
    P = S.T @ (qbar[:, None] * S) + np.diag(np.tile(cfg.r_diag, n_h))
    q = S.T @ (qbar * (T @ state.as_vector() - ref.reshape(-1)))
    mu, cap = 0.707 * mu_real, cfg.u_t_max
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


def assert_reduced_qp_solves_pinned(state, stance_seq, model, ref, cfg, mu_real):
    problem, pattern = assemble_qp(state, stance_seq, model, ref, MpcController(cfg, mu_real))
    free = pattern.free
    sol = qp.solve(problem)
    U = np.zeros(free.size)
    U[free] = sol.x_star
    full = pinned_qp(state, stance_seq, model, ref, cfg, mu_real)
    x_oracle = pgd_oracle(full.P, full.q, full.G, full.h)
    assert abs(objective(full, U) - objective(full, x_oracle)) < 1e-6
    # KKT of the full problem, with non-negative multipliers on the rows tight at U
    tight = full.G @ U - full.h > -1e-9
    lam = np.zeros(full.h.size)
    lam[tight] = nnls(full.G[tight].T, -(full.P @ U + full.q))[0]
    certificate = qp.QpSolution(U, np.flatnonzero(tight).tolist(), sol.iterations, lam)
    assert qp.check_kkt(full, certificate).max_residual() < 1e-6


def test_reduced_qp_matches_pinned_formulation_random(params):
    rng = np.random.default_rng(11)
    for trial in range(24):
        cfg = MpcConfig(horizon=int(rng.integers(1, 6)), u_t_max=20.0 * (trial % 2))
        mu_real = float(rng.uniform(0.2, 0.9)) / 0.707  # pyramid slopes 0.2 to 0.9
        state = RobotState(
            theta=rng.uniform(-0.1, 0.1, 3),
            p=np.array([0.0, 0.0, 0.25]) + rng.uniform(-0.03, 0.03, 3),
            omega=rng.uniform(-1.0, 1.0, 3),
            pdot=rng.uniform(-0.5, 0.5, 3),
        )
        d, r = stand_geometry(params)
        stance_seq = [rng.random(4) < 0.5 for _ in range(cfg.horizon)]
        if trial < 2:  # no stance leg at all; with a zero thrust cap there is no QP variable
            stance_seq = [np.zeros(4, dtype=bool)] * cfg.horizon
        model = make_model(state, d, r, stance_seq, cfg, params)
        ref = build_reference(state, Command(v_d=rng.uniform(-0.3, 0.3, 3), height=0.25), cfg)
        assert_reduced_qp_solves_pinned(state, stance_seq, model, ref, cfg, mu_real)


@pytest.mark.reads_events("push_no_thrust", (mpc, "assemble_qp"))
def test_reduced_qp_matches_pinned_formulation_recorded(bundled_runs):
    """Instances recorded from a closed-loop run across the push without
    thrusters, from 0.9 s to the fall at 1.453 s."""
    events = bundled_runs("push_no_thrust").events
    assembled = calls(events, "assemble_qp")
    assert len(assembled) == 146
    for state, stance_seq, model, ref, controller in (call.args for call in assembled[90:145]):
        assert_reduced_qp_solves_pinned(state, stance_seq, model, ref, controller.config, MU_REAL)


def reads_qps(name):
    """The mark of a test that reads the QP assemblies and solves of name's bundled run."""
    return pytest.mark.reads_events(name, (mpc, "assemble_qp"), (qp, "solve"))


@pytest.mark.parametrize(
    "name, ticks, dependent_seeds",
    [pytest.param("push_with_thrust", 200, True, marks=reads_qps("push_with_thrust")),
     pytest.param("push_no_thrust", 146, False, marks=reads_qps("push_no_thrust"))],
    ids=["push_with_thrust", "push_no_thrust"],
)
def test_warm_starts_match_cold_recorded(bundled_runs, name, ticks, dependent_seeds):
    """Closed-loop QPs across the push, with thrusters to 2 s and without them
    up to the fall. The controller seeds the rows whose layout index
    (layout_rows) was active at the previous tick, and no others; that warm
    start and the previous tick's raw row indices (which name other rows after
    a stance change) both give the cold solution, the dual loop's alone, which
    takes no KKT guess. With thrusters, some raw seeds hold rows dependent on
    each other; without them, none of this run's does."""
    events = bundled_runs(name).events
    assembled, solves = calls(events, "assemble_qp")[:ticks], returns(events, "solve")[:ticks]
    assert len(solves) == ticks
    cfg = assembled[0].args[4].config
    dependent = []
    for t in range(1, ticks):
        (call, sol), prev_sol = solves[t], solves[t - 1][1]
        problem, warm = call.args[0], call.kwargs["warm_active"]
        prev_active = layout_rows(assembled[t - 1].args[1], cfg)[prev_sol.active_set]
        rows = layout_rows(assembled[t].args[1], cfg)
        assert warm == [i for i, index in enumerate(rows) if index in prev_active]
        cold = qp.solve(problem)
        assert np.abs(sol.x_star - cold.x_star).max() <= 1e-8
        raw_seed = [j for j in prev_sol.active_set if j < len(problem.h)]
        dependent.append(np.linalg.matrix_rank(problem.G[raw_seed]) < len(raw_seed))
        raw = qp.solve(problem, warm_active=prev_sol.active_set)
        assert np.abs(raw.x_star - cold.x_star).max() <= 1e-8
        for got in (sol, cold, raw):
            assert qp.check_kkt(problem, got).max_residual() <= 1e-6
    assert any(dependent) == dependent_seeds


@st.composite
def drawn_runs(draw):
    """A 1.5 s run of a bundled scenario on ground of a drawn friction, pushed
    from 1.0 s for 0.05-0.5 s by up to 80 N in any horizontal direction and up
    to 20 N vertically, and commanded up to 0.3 m/s forward and 0.1 m/s sideways."""
    doc = load_bundled(draw(st.sampled_from(["flat_trot", "beam_walk", "push_with_thrust", "push_no_thrust"])))
    heading, horizontal = draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(0.0, 80.0))
    force = (horizontal * np.array([np.cos(heading), np.sin(heading)])).tolist() + [draw(st.floats(-20.0, 20.0))]
    push = {"t_start_s": 1.0, "t_end_s": 1.0 + draw(st.floats(0.05, 0.5)), "force_n": force}
    doc.update(duration_s=1.5, mu_real=draw(st.floats(0.3, 0.9)), disturbances=[push])
    doc["command"]["v_d_mps"] = [draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.1, 0.1)), 0.0]
    return doc


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(drawn_runs())
def test_every_qp_of_a_drawn_run_is_solved(doc):
    """Closed-loop audit: every QP that a drawn run hands the solver is solved,
    to KKT residuals of at most 1e-6, and its warm start gives the cold
    solution, the dual loop's alone, to 1e-8."""
    with recording((qp, "solve")) as events:
        run_doc(doc)
    solved = returns(events, "solve")
    assert len(solved) == len(calls(events, "solve")) > 0  # no solve raised
    for call, sol in solved:
        problem = call.args[0]
        assert qp.check_kkt(problem, sol).max_residual() <= 1e-6
        assert np.abs(qp.solve(problem).x_star - sol.x_star).max() <= 1e-8


@pytest.mark.xfail(strict=True, raises=qp.Infeasible,
                   reason="the solver's violation and curvature tests scale with h, not with q")
def test_absurd_command_leaves_the_qp_feasible():
    """A finite command however far off changes q alone: U = 0 still meets
    every row, so the QP has an optimum. The first QP of push_with_thrust at
    1e160 m/s, where q reaches 1e160, is solved as the controller seeds it."""
    doc = load_bundled("push_with_thrust")
    doc["command"]["v_d_mps"], doc["duration_s"] = [1e160, 0.0, 0.0], 0.01
    with recording((qp, "solve")) as events:
        run(*cli.configs_from_doc(doc))
    first = calls(events, "solve")[0]
    problem = first.args[0]
    assert (problem.h >= 0.0).all()  # U = 0 is feasible
    sol = qp.solve(problem, warm_active=first.kwargs["warm_active"])
    assert qp.check_kkt(problem, sol).primal_feasibility <= 1e-6


@pytest.mark.parametrize("cap", [
    pytest.param(1e9, id="1e9"),
    pytest.param(1e12, id="1e12", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="qp.solve's violation tolerance scales with max|h|, the cap, so the pyramid rows (h = 0) inherit it")),
])
def test_a_thrust_cap_that_never_binds_keeps_the_pyramid(cap):
    """The first 0.1 s of push_with_thrust succeeds at a thrust cap far above
    any thrust it asks for (at a cap of 1e9 N the full run peaks at 108 N): the
    cap's rows never bind, so the friction pyramid holds the forces as it does
    under the bundled 20 N cap."""
    doc = load_bundled("push_with_thrust")
    doc["duration_s"], doc["mpc"]["u_t_max_n"] = 0.1, cap
    log, outcome = run_doc(doc)
    assert outcome is None and log.n == 100, outcome


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=pytest.mark.reads_events(name, (MpcController, "horizon")))
             for name in ("beam_walk", "push_with_thrust")])
def test_each_ticks_pattern_entry_is_a_fresh_layouts_entry(name, bundled_runs):
    """The controller's layout holds one entry per horizon stance pattern; the
    entry each tick of a bundled run was given, looked up from the entries built
    at earlier ticks, is still bit for bit the entry a fresh controller builds
    for that tick's stance rows once the run is over."""
    events = bundled_runs(name).events
    used = returns(events, "horizon")
    assert len(used) > 100
    for call, got in used:
        controller, stance_seq = call.args
        expected = MpcController(controller.config, MU_REAL).horizon(stance_seq)
        assert all(same_bits(a, b) for a, b in zip(got, expected))


@pytest.mark.reads_events("beam_walk", (mpc, "HorizonLayout"))
def test_a_run_builds_one_layout_per_stance_pattern(bundled_runs):
    """beam_walk's 1,000 ticks have 15 distinct horizon stance patterns, and
    one HorizonLayout is built for each."""
    run = bundled_runs("beam_walk")
    assert run.failure is None and run.log.n == 10000
    # the first field is the mask of the QP variables: thrusters on, one per pattern
    masks = [call.args[0].tobytes() for call in calls(run.events, "HorizonLayout")]
    assert len(masks) == len(set(masks)) == 15
