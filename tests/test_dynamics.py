import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from huskysim.dynamics import (
    NU,
    NX,
    ControlInput,
    RobotState,
    build_continuous_model,
    centroidal_accel,
    discretize,
)
from huskysim.robot import RobotParams
from huskysim.rotations import rot_z, rpy_matrix, skew
from huskysim.sim import step


@pytest.fixture
def params():
    return RobotParams()


def symmetric_stand(params):
    d = np.array(
        [
            [0.15, 0.10, -0.25],
            [0.15, -0.10, -0.25],
            [-0.15, 0.10, -0.25],
            [-0.15, -0.10, -0.25],
        ]
    )
    r = d * np.array([1.0, 1.0, 0.5])
    return d, r


def random_state(rng, angle=0.3):
    return RobotState(
        theta=rng.uniform(-angle, angle, 3),
        p=rng.normal(size=3),
        omega=rng.uniform(-0.5, 0.5, 3),
        pdot=rng.uniform(-0.5, 0.5, 3),
    )


def centroidal_accel_loop_oracle(state, u, d, r, params):
    """centroidal_accel as it was first written: one np.cross per leg and force."""
    R = rpy_matrix(state.theta)
    e_world = (R @ params.thrust_dirs.T).T
    force = u.grf.sum(axis=0) + (e_world * u.thrust[:, None]).sum(axis=0)
    pddot = force / params.mass + np.array([0.0, 0.0, -params.gravity])
    tau = np.zeros(3)
    for i in range(4):
        tau += np.cross(r[i], e_world[i] * u.thrust[i])
        tau += np.cross(d[i], u.grf[i])
    rz = rot_z(state.theta[2])
    return pddot, np.linalg.solve(rz @ params.inertia_body @ rz.T, tau)


def euler_rate_matrix_oracle(theta):
    """Exact mapping from world-frame omega to (roll, pitch, yaw) rates."""
    cy, sy = np.cos(theta[2]), np.sin(theta[2])
    cp, sp = np.cos(theta[1]), np.sin(theta[1])
    return np.array([[cy / cp, sy / cp, 0.0], [-sy, cy, 0.0], [cy * sp / cp, sy * sp / cp, 1.0]])


def step_oracle(state, u, d, r, f_ext, params, dt):
    """One semi-implicit Euler plant step on the loop oracle's accelerations."""
    pddot, omegadot = centroidal_accel_loop_oracle(state, u, d, r, params)
    pdot = state.pdot + (pddot + f_ext / params.mass) * dt
    omega = state.omega + omegadot * dt
    p = state.p + pdot * dt
    theta = state.theta + euler_rate_matrix_oracle(state.theta) @ omega * dt
    return RobotState(theta=theta, p=p, omega=omega, pdot=pdot)


def continuous_model_loop_oracle(state, d, r, params):
    """build_continuous_model as it was first written: B filled leg by leg."""
    rz = rot_z(state.theta[2])
    iw_inv = np.linalg.inv(rz @ params.inertia_body @ rz.T)
    e_yaw = (rz @ params.thrust_dirs.T).T
    A = np.zeros((NX, NX))
    A[0:3, 6:9] = rz.T
    A[3:6, 9:12] = np.eye(3)
    A[11, 12] = -params.gravity
    B = np.zeros((NX, NU))
    for i in range(4):
        B[6:9, 3 * i : 3 * i + 3] = iw_inv @ skew(d[i])
        B[9:12, 3 * i : 3 * i + 3] = np.eye(3) / params.mass
        B[6:9, 12 + i] = iw_inv @ np.cross(r[i], e_yaw[i])
        B[9:12, 12 + i] = e_yaw[i] / params.mass
    return A, B


def random_input(rng):
    return ControlInput(grf=rng.uniform(-30, 30, (4, 3)), thrust=rng.uniform(0, 20, 4))


def test_centroidal_accel_matches_loop_oracle(params):
    rng = np.random.default_rng(31)
    for _ in range(200):
        state = random_state(rng, angle=0.5)
        d, r = rng.uniform(-0.4, 0.4, (2, 4, 3))
        u = random_input(rng)
        pddot, omegadot = centroidal_accel(state, u, d, r, params)
        pddot_o, omegadot_o = centroidal_accel_loop_oracle(state, u, d, r, params)
        assert np.abs(pddot - pddot_o).max() <= 1e-12
        assert np.abs(omegadot - omegadot_o).max() <= 1e-12


def vectors(shape, bound):
    return arrays(np.float64, shape, elements=st.floats(-bound, bound))


@st.composite
def plant_ticks(draw):
    """(params, state, u, r, feet, f_ext, dt) of one tick of 1-20 plant steps,
    with thrust directions drawn off the default's; the feet are world
    positions, (n, 4, 3)."""
    n = draw(st.integers(1, 20))
    params = RobotParams()
    azimuth, elevation = draw(vectors(4, np.pi)), draw(vectors(4, np.pi / 2))
    params.thrust_dirs = np.stack(
        [np.cos(elevation) * np.cos(azimuth), np.cos(elevation) * np.sin(azimuth), np.sin(elevation)], axis=1
    )
    theta, p, omega, pdot = draw(vectors(3, 0.5)), draw(vectors(3, 2.0)), draw(vectors(3, 2.0)), draw(vectors(3, 2.0))
    state = RobotState(theta=theta, p=p, omega=omega, pdot=pdot)
    u = ControlInput(grf=draw(vectors((4, 3), 40.0)), thrust=draw(arrays(np.float64, 4, elements=st.floats(0.0, 20.0))))
    feet = p + draw(vectors((n, 4, 3), 0.4))
    dt = draw(st.sampled_from([5e-4, 1e-3, 2e-3]))
    return params, state, u, draw(vectors((4, 3), 0.4)), feet, draw(vectors((n, 3), 100.0)), dt


@settings(max_examples=50, deadline=None, derandomize=True)
@given(plant_ticks())
def test_plant_tick_matches_stepped_oracle(case):
    """One call over a tick's n steps equals n one-step oracle steps, each with
    its lever arms from the COM where that step starts."""
    params, state, u, r, feet, f_ext, dt = case
    post = step(state, u, feet - state.p, r, f_ext, params, dt)
    assert post.shape == (len(feet), 12)
    for j in range(len(feet)):
        state = step_oracle(state, u, feet[j] - state.p, r, f_ext[j], params, dt)
        assert np.abs(post[j] - state.as_vector()[:12]).max() <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(plant_ticks())
def test_plant_tick_first_accelerations_match_centroidal_accel(case):
    """The first step's velocity increments are centroidal_accel's accelerations
    (plus f_ext / m) times dt."""
    params, state, u, r, feet, f_ext, _ = case
    d = feet[0] - state.p
    post = step(state, u, d, r, f_ext[0], params, 1.0)[0]  # dt = 1: the rates are the increments
    pddot, omegadot = centroidal_accel(state, u, d, r, params)
    pddot = pddot + f_ext[0] / params.mass
    assert np.abs(post[9:12] - state.pdot - pddot).max() <= 1e-12 * max(1.0, np.abs(pddot).max())
    assert np.abs(post[6:9] - state.omega - omegadot).max() <= 1e-12 * max(1.0, np.abs(omegadot).max())


def test_continuous_model_matches_loop_oracle(params):
    rng = np.random.default_rng(32)
    for _ in range(200):
        state = random_state(rng, angle=0.5)
        d, r = rng.uniform(-0.4, 0.4, (2, 4, 3))
        A, B = build_continuous_model(state, d, r, params)
        A_o, B_o = continuous_model_loop_oracle(state, d, r, params)
        assert np.abs(A - A_o).max() <= 1e-12
        assert np.abs(B - B_o).max() <= 1e-12


def test_continuous_model_stacked_lever_arms(params):
    """A stack of lever-arm sets gives one B per set, each as if built alone."""
    rng = np.random.default_rng(33)
    state = random_state(rng)
    d_seq = rng.uniform(-0.4, 0.4, (5, 4, 3))
    r = rng.uniform(-0.4, 0.4, (4, 3))
    A, B_seq = build_continuous_model(state, d_seq, r, params)
    assert B_seq.shape == (5, NX, NU)
    for d, B in zip(d_seq, B_seq):
        A_k, B_k = build_continuous_model(state, d, r, params)
        assert np.array_equal(A, A_k)
        assert np.abs(B - B_k).max() <= 1e-12


def test_free_fall(params):
    d, r = symmetric_stand(params)
    pddot, omegadot = centroidal_accel(RobotState(), ControlInput(), d, r, params)
    assert np.allclose(pddot, [0.0, 0.0, -params.gravity], atol=1e-12)
    assert np.allclose(omegadot, 0.0, atol=1e-12)


def test_static_equilibrium(params):
    d, r = symmetric_stand(params)
    u = ControlInput()
    u.grf[:, 2] = params.mass * params.gravity / 4
    pddot, omegadot = centroidal_accel(RobotState(), u, d, r, params)
    assert np.abs(pddot).max() < 1e-12
    assert np.abs(omegadot).max() < 1e-12


def test_single_thruster_torque_oracle():
    params = RobotParams()
    params.thrust_dirs = np.array(
        [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, -1.0, 0.0]]
    )
    d = np.zeros((4, 3))
    r = np.zeros((4, 3))
    r[0] = [0.1, 0.2, -0.1]
    u = ControlInput()
    u.thrust[0] = 10.0
    _, omegadot = centroidal_accel(RobotState(), u, d, r, params)
    # independent cross product: r x (e * u_t) = (0.1, 0.2, -0.1) x (0, 10, 0)
    tau = np.array(
        [
            0.2 * 0.0 - (-0.1) * 10.0,
            (-0.1) * 0.0 - 0.1 * 0.0,
            0.1 * 10.0 - 0.2 * 0.0,
        ]
    )
    assert np.allclose(tau, [1.0, 0.0, 1.0])
    assert np.allclose(omegadot, np.linalg.solve(params.inertia_body, tau), atol=1e-12)


def test_model_structure(params):
    d, r = symmetric_stand(params)
    state = RobotState(theta=np.array([0.0, 0.0, 0.7]))
    A, B = build_continuous_model(state, d, r, params)
    for i in range(4):
        assert np.allclose(B[9:12, 3 * i : 3 * i + 3], np.eye(3) / params.mass, atol=1e-14)
    assert np.allclose(A[0:3, 6:9], rot_z(0.7).T, atol=1e-14)
    assert A[11, 12] == pytest.approx(-params.gravity)
    assert np.allclose(A[12, :], 0.0)  # constant augmented state


def test_model_theta_block_identity_at_zero_yaw(params):
    d, r = symmetric_stand(params)
    A, _ = build_continuous_model(RobotState(), d, r, params)
    assert np.allclose(A[0:3, 6:9], np.eye(3), atol=1e-14)


def test_model_directional_consistency(params):
    """A x + B u must reproduce the yaw-approximated nonlinear dynamics."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        state = random_state(rng)
        d = rng.uniform(-0.3, 0.3, (4, 3))
        r = rng.uniform(-0.3, 0.3, (4, 3))
        u = ControlInput(grf=rng.uniform(-20, 20, (4, 3)), thrust=rng.uniform(0, 10, 4))
        A, B = build_continuous_model(state, d, r, params)
        xdot = A @ state.as_vector() + B @ u.as_vector()

        # same approximations evaluated through the nonlinear path: zero the
        # roll/pitch so the full attitude rotation collapses to yaw only
        yaw_state = RobotState(
            theta=np.array([0.0, 0.0, state.theta[2]]),
            p=state.p,
            omega=state.omega,
            pdot=state.pdot,
        )
        pddot, omegadot = centroidal_accel(yaw_state, u, d, r, params)
        expected = np.concatenate(
            [
                rot_z(state.theta[2]).T @ state.omega,
                state.pdot,
                omegadot,
                pddot,  # includes gravity, matching the augmented-state column
                [0.0],
            ]
        )
        assert np.abs(xdot - expected).max() < 1e-10


def test_discretize_trivial():
    model = discretize(np.zeros((13, 13)), np.zeros((13, 16)), 0.05)
    assert np.allclose(model.A_k, np.eye(13))
    assert np.allclose(model.B_k, 0.0)


def test_discretize_zero_dt():
    rng = np.random.default_rng(1)
    A, B = rng.normal(size=(13, 13)), rng.normal(size=(13, 16))
    model = discretize(A, B, 0.0)
    assert np.allclose(model.A_k, np.eye(13))
    assert np.allclose(model.B_k, 0.0)


def test_discretize_matches_scalar_loop():
    rng = np.random.default_rng(7)
    A, B = rng.normal(size=(13, 13)), rng.normal(size=(13, 16))
    dt = 0.05
    model = discretize(A, B, dt)
    for i in range(13):
        for j in range(13):
            expected = (1.0 if i == j else 0.0) + A[i, j] * dt
            assert model.A_k[i, j] == pytest.approx(expected, abs=1e-15)
        for j in range(16):
            assert model.B_k[i, j] == pytest.approx(B[i, j] * dt, abs=1e-15)


def test_linearization_consistency(params):
    """Discrete step equals x + f_approx dt for the approximated dynamics."""
    rng = np.random.default_rng(12)
    dt = 0.03
    for _ in range(100):
        state = random_state(rng, angle=0.1)
        d = rng.uniform(-0.3, 0.3, (4, 3))
        r = rng.uniform(-0.3, 0.3, (4, 3))
        u = ControlInput(grf=rng.uniform(-30, 30, (4, 3)), thrust=rng.uniform(0, 15, 4))
        A, B = build_continuous_model(state, d, r, params)
        model = discretize(A, B, dt)
        x = state.as_vector()
        step_lin = model.A_k @ x + model.B_k @ u.as_vector()
        step_direct = x + (A @ x + B @ u.as_vector()) * dt
        assert np.abs(step_lin - step_direct).max() < 1e-9


def test_accel_affine_in_input(params):
    rng = np.random.default_rng(15)
    state = random_state(rng)
    d = rng.uniform(-0.3, 0.3, (4, 3))
    r = rng.uniform(-0.3, 0.3, (4, 3))
    u1 = ControlInput(grf=rng.normal(size=(4, 3)), thrust=rng.uniform(0, 5, 4))
    u2 = ControlInput(grf=rng.normal(size=(4, 3)), thrust=rng.uniform(0, 5, 4))
    a, b = 0.6, 0.4  # affine combination keeps the gravity offset intact
    u_mix = ControlInput(grf=a * u1.grf + b * u2.grf, thrust=a * u1.thrust + b * u2.thrust)
    p1, w1 = centroidal_accel(state, u1, d, r, params)
    p2, w2 = centroidal_accel(state, u2, d, r, params)
    pm, wm = centroidal_accel(state, u_mix, d, r, params)
    assert np.abs(pm - (a * p1 + b * p2)).max() < 1e-12
    assert np.abs(wm - (a * w1 + b * w2)).max() < 1e-12


def test_yaw_equivariance(params):
    """Yawing state, feet, and thruster geometry yaws the accelerations."""
    rng = np.random.default_rng(18)
    state = random_state(rng, angle=0.2)
    d = rng.uniform(-0.3, 0.3, (4, 3))
    r = rng.uniform(-0.3, 0.3, (4, 3))
    u = ControlInput(grf=rng.uniform(-20, 20, (4, 3)), thrust=rng.uniform(0, 10, 4))
    psi = 1.1
    rz = rot_z(psi)

    p0, w0 = centroidal_accel(state, u, d, r, params)
    state_rot = RobotState(
        theta=state.theta + [0.0, 0.0, psi],
        p=rz @ state.p,
        omega=rz @ state.omega,
        pdot=rz @ state.pdot,
    )
    u_rot = ControlInput(grf=(rz @ u.grf.T).T, thrust=u.thrust.copy())
    p1, w1 = centroidal_accel(state_rot, u_rot, (rz @ d.T).T, (rz @ r.T).T, params)
    grav = np.array([0.0, 0.0, -params.gravity])
    assert np.abs(p1 - (rz @ (p0 - grav) + grav)).max() < 1e-12
    assert np.abs(w1 - rz @ w0).max() < 1e-12


def test_zero_torque_keeps_omega_rate_zero(params):
    state = RobotState(theta=np.array([0.1, -0.05, 0.4]), omega=np.array([0.3, 0.2, -0.1]))
    d, r = symmetric_stand(params)
    _, omegadot = centroidal_accel(state, ControlInput(), d, r, params)
    assert np.abs(omegadot).max() < 1e-12


def test_state_vector_roundtrip():
    rng = np.random.default_rng(20)
    state = random_state(rng)
    x = state.as_vector()
    assert x.shape == (13,)
    assert x[12] == 1.0
    back = RobotState(theta=x[0:3], p=x[3:6], omega=x[6:9], pdot=x[9:12])
    assert np.allclose(back.theta, state.theta)
    assert np.allclose(back.pdot, state.pdot)


def test_control_input_roundtrip():
    rng = np.random.default_rng(21)
    u = ControlInput(grf=rng.normal(size=(4, 3)), thrust=rng.uniform(0, 5, 4))
    v = u.as_vector()
    assert v.shape == (16,)
    back = ControlInput.from_vector(v)
    assert np.allclose(back.grf, u.grf)
    assert np.allclose(back.thrust, u.thrust)
