import warnings

import numpy as np
import pytest

from conftest import load_bundled, run_doc
from huskysim import cli
from huskysim.dynamics import ControlInput, RobotState
from huskysim.robot import RobotParams
from huskysim.sim import (
    BEAM_MISS,
    ROLL_DIVERGENCE,
    SLIP,
    SLIP_FORCE_TOL,
    SimLog,
    Terrain,
    check_contact_legality,
    friction_ratios,
    horizon_models,
    step,
)


@pytest.fixture
def params():
    return RobotParams().validate()


def null_geometry():
    d = np.zeros((4, 3))
    d[:, 2] = -0.25
    return d, d * 0.5


def test_free_fall_drop(params):
    d, r = null_geometry()
    state = RobotState(p=np.array([0.0, 0.0, 1.0]))
    dt, t_total = 1e-3, 0.15
    for _ in range(int(round(t_total / dt))):
        state = step(state, ControlInput(), d, r, np.zeros(3), params, dt)
    drop = 1.0 - state.p[2]
    expected = 0.5 * params.gravity * t_total**2
    assert abs(drop - expected) < 1e-3  # semi-implicit bias is g dt t / 2


def test_equilibrium_stance_is_stationary(params):
    d = params.hip_offsets.copy()
    d[:, 2] = -0.25
    u = ControlInput()
    u.grf[:, 2] = params.mass * params.gravity / 4
    state = RobotState(p=np.array([0.0, 0.0, 0.25]))
    for _ in range(100):
        new = step(state, u, d, d * 0.5, np.zeros(3), params, 1e-3)
        assert np.abs(new.p - state.p).max() < 1e-12
        assert np.abs(new.pdot).max() < 1e-12
        assert np.abs(new.theta).max() < 1e-12
        state = new


def test_single_thruster_velocity_kick():
    params = RobotParams()  # mass 6.625 kg
    d, _ = null_geometry()
    r = np.zeros((4, 3))
    u = ControlInput()
    u.thrust[1] = 10.0  # right-front thruster pushes +y
    state = RobotState(p=np.array([0.0, 0.0, 1.0]))
    state = step(state, u, d, r, np.zeros(3), params, 1e-3)
    assert state.pdot[1] == pytest.approx(1.5094e-3, abs=1e-7)


def test_energy_drift_bound(params):
    """Free-fall mechanical energy decays within the semi-implicit bound."""
    d, r = null_geometry()
    state = RobotState(p=np.array([0.0, 0.0, 50.0]), pdot=np.array([0.3, -0.2, 0.4]))
    dt, t_total = 1e-3, 1.0

    def energy(s):
        return 0.5 * params.mass * s.pdot @ s.pdot + params.mass * params.gravity * s.p[2]

    e0 = energy(state)
    t = 0.0
    while t < t_total - 1e-12:
        state = step(state, ControlInput(), d, r, np.zeros(3), params, dt)
        t += dt
        drift = energy(state) - e0
        assert drift <= 1e-12
        assert abs(drift) < params.mass * params.gravity**2 * dt * t + 1e-9


def test_contact_legality_friction_examples():
    terrain = Terrain()
    u = ControlInput()
    u.grf[0] = [0.3, 0.0, 1.0]
    foot = np.zeros((4, 3))
    stance = np.array([True, False, False, False])
    assert check_contact_legality(u, foot, stance, terrain, 0.5) == []
    u.grf[0] = [0.6, 0.0, 1.0]
    violations = check_contact_legality(u, foot, stance, terrain, 0.5)
    assert violations and violations[0][0] == SLIP


def test_contact_legality_ignores_solver_residue():
    """Nano-newton forces a hair outside the cone are QP round-off, not a slip."""
    terrain = Terrain()
    foot = np.zeros((4, 3))
    stance = np.array([True, False, False, False])
    u = ControlInput()
    u.grf[0] = [4.0e-10, -4.9e-10, 1.13e-9]  # ratio 0.56, 7e-11 N outside a 0.5 cone
    assert check_contact_legality(u, foot, stance, terrain, 0.5) == []
    u.grf[0] = [0.51e-3, 0.0, 1.0e-3]  # a milli-newton load outside the cone still slips
    assert check_contact_legality(u, foot, stance, terrain, 0.5)[0][0] == SLIP


def test_contact_legality_beam_miss():
    terrain = Terrain(kind="beam", width=0.1, height=0.1)
    u = ControlInput()
    u.grf[0] = [0.0, 0.0, 10.0]
    foot = np.zeros((4, 3))
    foot[0] = [0.0, 0.06, 0.1]
    stance = np.array([True, False, False, False])
    violations = check_contact_legality(u, foot, stance, terrain, 0.5)
    assert violations and violations[0][0] == BEAM_MISS


def test_friction_ratio_computation():
    u = ControlInput()
    u.grf[0] = [3.0, 4.0, 10.0]
    ratios = friction_ratios(u, np.array([True, False, False, False]))
    assert ratios[0] == pytest.approx(0.5)
    assert np.all(ratios[1:] == 0.0)


def test_zero_duration_run_succeeds():
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 0.0
    log, outcome = run_doc(doc)
    assert outcome is None
    assert log.rows == []


def test_run_log_completeness_and_pinned_feet():
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 1.2
    log, outcome = run_doc(doc)
    assert outcome is None
    arr = log.as_array()
    assert abs(len(arr) - 1200) <= 1
    assert np.all(np.diff(arr[:, 0]) > 0)
    # stance feet stay pinned: foot columns constant while the flag is up
    for leg in range(4):
        foot_cols = arr[:, 29 + 3 * leg : 32 + 3 * leg]
        flags = arr[:, 41 + leg] > 0.5
        for i in range(1, len(arr)):
            if flags[i] and flags[i - 1]:
                assert np.abs(foot_cols[i] - foot_cols[i - 1]).max() < 1e-12


def test_run_determinism_bit_identical(tmp_path):
    doc = load_bundled("push_no_thrust")
    doc["duration_s"] = 1.2
    paths = []
    for tag in ("a", "b"):
        log, _ = run_doc(doc)
        path = tmp_path / f"{tag}.csv"
        log.to_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_plant_model_single_step_agreement(params):
    """Nonlinear plant and linear model agree per step at small angles."""
    from huskysim.dynamics import build_continuous_model, discretize

    rng = np.random.default_rng(14)
    dt = 1e-3
    weight = params.mass * params.gravity
    for _ in range(50):
        state = RobotState(
            theta=rng.uniform(-0.02, 0.02, 3),
            p=rng.normal(size=3),
            omega=rng.uniform(-0.2, 0.2, 3),
            pdot=rng.uniform(-0.3, 0.3, 3),
        )
        # stance-like loading: near weight-bearing with moderate tangentials
        d = params.hip_offsets + rng.uniform(-0.03, 0.03, (4, 3))
        d[:, 2] = -0.25 + rng.uniform(-0.02, 0.02, 4)
        r = d * 0.5
        grf = rng.uniform(-5, 5, (4, 3))
        grf[:, 2] += weight / 4
        u = ControlInput(grf=grf, thrust=rng.uniform(0, 0.5, 4))
        A, B = build_continuous_model(state, d, r, params)
        model = discretize(A, B, dt)
        x_lin = model.A_k @ state.as_vector() + model.B_k @ u.as_vector()
        x_plant = step(state, u, d, r, np.zeros(3), params, dt).as_vector()
        assert np.abs(x_plant - x_lin).max() < 1e-4


def test_horizon_models_match_per_step_builds(params):
    """One build per tick equals a build and a discretization per horizon step."""
    from huskysim.dynamics import build_continuous_model, discretize

    rng = np.random.default_rng(16)
    dt = 0.06
    for _ in range(50):
        state = RobotState(theta=rng.uniform(-0.2, 0.2, 3), p=rng.normal(size=3))
        d, r = rng.uniform(-0.3, 0.3, (2, 4, 3))
        touchdown = state.p + rng.uniform(-0.3, 0.3, (4, 3))
        stance_now = rng.random(4) < 0.5
        stance_seq = [rng.random(4) < 0.5 for _ in range(5)]
        model = horizon_models(state, d, r, touchdown, stance_now, stance_seq, params, dt)
        assert model.B_k.shape == (5, 13, 16)
        for flags, B_k in zip(stance_seq, model.B_k):
            d_k = d.copy()
            for leg in range(4):
                if flags[leg] and not stance_now[leg]:
                    d_k[leg] = touchdown[leg] - state.p
            expected = discretize(*build_continuous_model(state, d_k, r, params), dt)
            assert np.abs(model.A_k - expected.A_k).max() <= 1e-12
            assert np.abs(B_k - expected.B_k).max() <= 1e-12


def test_flat_trot_tracks_speed():
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 3.0
    log, outcome = run_doc(doc)
    assert outcome is None
    arr = log.as_array()
    v_mean = (arr[-1, 4] - arr[0, 4]) / (arr[-1, 0] - arr[0, 0])
    assert abs(v_mean - 0.2) / 0.2 < 0.2


def test_push_without_thrusters_fails_quickly():
    log, outcome = run_doc(load_bundled("push_no_thrust"))
    assert outcome is not None
    assert outcome.kind in (ROLL_DIVERGENCE, "HeightCollapse", SLIP, BEAM_MISS)
    assert 1.0 < outcome.t < 3.0
    # regression pin for the bundled scenario
    assert outcome.t == pytest.approx(1.45, abs=0.5)


def test_narrow_stance_trot_stable_without_push():
    doc = load_bundled("push_no_thrust")
    doc["disturbances"] = []
    doc["duration_s"] = 3.0
    log, outcome = run_doc(doc)
    assert outcome is None
    arr = log.as_array()
    assert np.abs(arr[:, 1]).max() < 0.1


def test_simlog_csv_roundtrip(tmp_path):
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 0.2
    log, _ = run_doc(doc)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path) as f:
        header = f.readline().strip().split(",")
    assert header == SimLog.HEADER
    assert header[0] == "t"
    assert len(header) == 49


def test_simlog_from_csv_reads_what_to_csv_wrote(tmp_path):
    doc = load_bundled("push_with_thrust")
    doc["duration_s"] = 0.2
    log, _ = run_doc(doc)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    written = np.array([[float(f"{v:.9g}") for v in row] for row in log.rows])
    assert np.array_equal(SimLog.from_csv(path).as_array(), written)

    SimLog().to_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when it parses no rows
        assert SimLog.from_csv(path).as_array().shape == (0, len(SimLog.HEADER))
    path.write_text("t,roll\n0,0\n")
    with pytest.raises(ValueError, match="header"):
        SimLog.from_csv(path)


def test_scenario_validation():
    doc = load_bundled("flat_trot")
    doc["duration_s"] = -1.0
    with pytest.raises(ValueError, match="duration_s"):
        cli.configs_from_doc(doc)
    doc2 = load_bundled("push_with_thrust")
    doc2["disturbances"][0]["t_end_s"] = 0.5
    with pytest.raises(ValueError, match="t_end_s"):
        cli.configs_from_doc(doc2)


def test_gimbal_guard_before_divergence():
    # the roll/pitch failure threshold precedes the Euler singularity
    doc = load_bundled("push_no_thrust")
    doc["disturbances"][0]["force_n"] = [0.0, 200.0, 0.0]
    log, outcome = run_doc(doc)
    assert outcome is not None
    assert outcome.kind in ("RollDivergence", "HeightCollapse")


def test_friction_ratio_zero_for_residue_load():
    # with the 200 N push the QP leaves ~1e-9 N of residue on legs it has
    # unloaded (leg 1 carried 1.1e-9 N at a ratio of 0.56); that is no load
    doc = load_bundled("push_no_thrust")
    doc["disturbances"][0]["force_n"] = [0.0, 200.0, 0.0]
    log, _ = run_doc(doc)
    arr = log.as_array()
    col = SimLog.HEADER.index
    fz = arr[:, [col(f"grf{i}z") for i in range(4)]]
    stance = arr[:, [col(f"stance{i}") for i in range(4)]] > 0
    ratios = arr[:, [col(f"ratio{i}") for i in range(4)]]
    residue = stance & (fz != 0.0) & (np.abs(fz) <= SLIP_FORCE_TOL)
    assert residue.any()
    assert np.all(ratios[stance & (fz <= SLIP_FORCE_TOL)] == 0.0)
