import warnings

import numpy as np
import pytest

from conftest import Call, Return, load_bundled, recording, returns, run_doc, thruster_oracle
from huskysim import cli, mpc, qp, sim
from huskysim.dynamics import ControlInput, RobotState
from huskysim.gait import GaitConfig
from huskysim.robot import NoConvergence, RobotParams, leg_inverse_kinematics
from huskysim.rotations import rpy_matrix
from huskysim.sim import (
    BEAM_MISS,
    ROLL_DIVERGENCE,
    SLIP,
    SLIP_FORCE_TOL,
    Scenario,
    SimLog,
    Terrain,
    _LegTracker,
    check_contact_legality,
    friction_ratios,
    horizon_models,
    step,
    steps_per_tick,
)


@pytest.fixture
def params():
    return RobotParams()


def null_geometry():
    d = np.zeros((4, 3))
    d[:, 2] = -0.25
    return d, d * 0.5


def test_free_fall_drop(params):
    d, r = null_geometry()
    state = RobotState(p=np.array([0.0, 0.0, 1.0]))
    dt, t_total = 1e-3, 0.15
    for _ in range(int(round(t_total / dt))):
        state = RobotState.from_vector(step(state, ControlInput(), d, r, np.zeros(3), params, dt, 0.0, -np.inf)[0][1])
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
        new = RobotState.from_vector(step(state, u, d, d * 0.5, np.zeros(3), params, 1e-3, 0.0, -np.inf)[0][1])
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
    state = RobotState.from_vector(step(state, u, d, r, np.zeros(3), params, 1e-3, 0.0, -np.inf)[0][1])
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
        state = RobotState.from_vector(step(state, ControlInput(), d, r, np.zeros(3), params, dt, 0.0, -np.inf)[0][1])
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


def test_contact_legality_tangential_force_without_load_slips():
    """A stance leg pushing sideways with no normal load slips; the detail
    names an infinite ratio (a division by the zero load would warn, which
    fails the test)."""
    terrain = Terrain()
    foot = np.zeros((4, 3))
    stance = np.array([True, False, False, False])
    u = ControlInput()
    u.grf[0] = [0.5, 0.0, 0.0]
    assert check_contact_legality(u, foot, stance, terrain, 0.5) == [(SLIP, 0, "leg 0 friction ratio inf > mu 0.5")]
    u.grf[0, 2] = 2e-9
    assert check_contact_legality(u, foot, stance, terrain, 0.5) == [
        (SLIP, 0, "leg 0 friction ratio 2.5e+08 > mu 0.5")
    ]
    stance[0] = False  # a swing leg's force is not checked
    assert check_contact_legality(u, foot, stance, terrain, 0.5) == []


def test_contact_legality_beam_miss():
    terrain = Terrain(width=0.1, height=0.1)
    u = ControlInput()
    u.grf[0] = [0.0, 0.0, 10.0]
    foot = np.zeros((4, 3))
    foot[0] = [0.0, 0.06, 0.1]
    stance = np.array([True, False, False, False])
    violations = check_contact_legality(u, foot, stance, terrain, 0.5)
    assert violations and violations[0][0] == BEAM_MISS


def test_flat_ground_stands_on_its_height():
    """Flat ground (width 0) is a support as a beam's top face is: a document
    that sets its height starts every foot on that surface, and the body that
    much above the commanded height."""
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 0.01
    doc["terrain"] = {"height_m": 0.1}
    log, outcome = run_doc(doc)
    assert outcome is None
    first, col = log.as_array()[0], SimLog.HEADER.index
    assert [first[col(f"foot{i}z")] for i in range(4)] == [0.1] * 4
    assert first[col("pz")] == pytest.approx(0.3)


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
    assert log.as_array().shape[0] == 0


def test_gait_off_the_tick_grid_moves_feet_continuously():
    """Mode durations that are not whole ticks: stance is sampled once per
    tick and held over its plant steps, so no foot jumps back to an old
    lift-off between ticks."""
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 3.0
    doc.setdefault("gait", {}).update(t_stance_s=0.305, t_swing_s=0.155)
    log, outcome = run_doc(doc)
    assert outcome is None
    arr = log.as_array()
    feet = arr[:, 29:41].reshape(-1, 4, 3)
    assert np.linalg.norm(np.diff(feet, axis=0), axis=-1).max() < 0.01
    flips = np.flatnonzero(np.any(np.diff(arr[:, 41:45], axis=0) != 0, axis=1)) + 1
    assert flips.size and np.all(flips % 10 == 0)  # 10 plant steps per 100 Hz tick


def test_control_tick_is_whole_plant_steps():
    """The accepted side of the rule; test_cli's probes exit 1 on the other."""
    assert steps_per_tick(100.0, 1e-3) == 10
    assert steps_per_tick(100.0, 5e-4) == 20  # the benchmark's fine_step_trot
    assert steps_per_tick(1e-307, 1e-3) > 10**9  # a tick that outlasts any run, not an overflow


def test_to_csv_writes_each_value_as_9_significant_digits(tmp_path):
    """A wrapped array is written as a run's log is, each value as f"{v:.9g}":
    rows that hold nothing, no rows, and rows whose input, stance flags, ratios
    and stance feet hold over 7 rows, then 13, from which to_csv finds its
    blocks; then two rows of equal inputs where a stance leg's foot moves, and
    two that differ only in a held 0.0 and -0.0. Swing feet move at every row."""
    def reference(rows):
        return ",".join(SimLog.HEADER) + "\n" + "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in rows)

    rng = np.random.default_rng(5)
    rows = rng.choice([-1.0, 1.0], (2000, 49)) * 10.0 ** rng.uniform(-20, 20, (2000, 49))
    rows[0, :4] = [-0.0, 5e-324, 1.8e308, 0.0]
    held = rows[:24].copy()
    for start, stop, stance in ((0, 7, [1, 0, 0, 1]), (7, 20, [0, 1, 1, 1]), (20, 24, [1, 1, 0, 0])):
        held[start:stop, 41:45] = stance
        columns = np.r_[13:29, 41:49, 29 + np.flatnonzero(np.repeat(stance, 3))]
        held[start:stop, columns] = held[start, columns]
    held[21, 29] += 0.25  # leg 0's foot, in stance
    held[22:24, 13:49] = held[21, 13:49]
    held[22, 14], held[23, 14] = 0.0, -0.0
    path = tmp_path / "log.csv"
    for data in (rows, np.zeros((0, 49)), held):
        expected = reference(data).encode()  # to_csv rounds the rows it is given in place
        SimLog(data.copy(), len(data)).to_csv(path)
        assert path.read_bytes() == expected


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
        A_k, B_k = discretize(A, B, dt)
        x_lin = A_k @ state.as_vector() + B_k @ u.as_vector()
        x_plant = RobotState.from_vector(step(state, u, d, r, np.zeros(3), params, dt, 0.0, -np.inf)[0][1]).as_vector()
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
        stance_seq = [rng.random(4) < 0.5 for _ in range(5)]
        stance_now = stance_seq[0]
        A_k, B_ks = horizon_models(state, d, r, touchdown, stance_seq, params, dt)
        assert B_ks.shape == (5, 13, 16)
        for flags, B_k in zip(stance_seq, B_ks):
            d_k = d.copy()
            for leg in range(4):
                if flags[leg] and not stance_now[leg]:
                    d_k[leg] = touchdown[leg] - state.p
            expected_A_k, expected_B_k = discretize(*build_continuous_model(state, d_k, r, params), dt)
            assert np.abs(A_k - expected_A_k).max() <= 1e-12
            assert np.abs(B_k - expected_B_k).max() <= 1e-12


def test_flat_trot_tracks_speed():
    doc = load_bundled("flat_trot")
    doc["duration_s"] = 3.0
    log, outcome = run_doc(doc)
    assert outcome is None
    arr = log.as_array()
    v_mean = (arr[-1, 4] - arr[0, 4]) / (arr[-1, 0] - arr[0, 0])
    assert abs(v_mean - 0.2) / 0.2 < 0.2


def test_push_without_thrusters_fails_quickly(bundled_runs):
    outcome = bundled_runs("push_no_thrust").failure
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
    written = np.array([[float(f"{v:.9g}") for v in row] for row in log.as_array()])
    log.to_csv(path)
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


@pytest.fixture(scope="module")
def pushed_200n():
    """push_no_thrust under a 200 N push instead of 40 N: (log, failure)."""
    doc = load_bundled("push_no_thrust")
    doc["disturbances"][0]["force_n"] = [0.0, 200.0, 0.0]
    return run_doc(doc)


def test_gimbal_guard_before_divergence(pushed_200n):
    # the roll/pitch failure threshold precedes the Euler singularity
    _, outcome = pushed_200n
    assert outcome is not None
    assert outcome.kind in ("RollDivergence", "HeightCollapse")


def test_friction_ratio_zero_for_residue_load(pushed_200n):
    # with the 200 N push the QP leaves ~1e-9 N of residue on legs it has
    # unloaded (leg 1 carried 1.1e-9 N at a ratio of 0.56); that is no load
    log, _ = pushed_200n
    arr = log.as_array()
    col = SimLog.HEADER.index
    fz = arr[:, [col(f"grf{i}z") for i in range(4)]]
    stance = arr[:, [col(f"stance{i}") for i in range(4)]] > 0
    ratios = arr[:, [col(f"ratio{i}") for i in range(4)]]
    residue = stance & (fz != 0.0) & (np.abs(fz) <= SLIP_FORCE_TOL)
    assert residue.any()
    assert np.all(ratios[stance & (fz <= SLIP_FORCE_TOL)] == 0.0)


def scalar_snapshot(tracker, state, foot_pos):
    """The IK snapshot leg by leg through the scalar IK: the angles, lever
    arms, thruster points and stale legs that tracker.snapshot must give."""
    R = rpy_matrix(state.theta)
    d = foot_pos - state.p
    q, r, stale = tracker.q.copy(), np.zeros((4, 3)), np.zeros(4, dtype=bool)
    for i in range(4):
        try:
            q[i] = leg_inverse_kinematics(tracker.params, i, R.T @ d[i], q[i])
        except NoConvergence:
            stale[i] = True  # the leg keeps its last angles
        r[i] = R @ thruster_oracle(tracker.params, i, q[i])
    return q, d, r, stale


def test_snapshot_is_the_scalar_snapshot():
    """The four-leg snapshot gives the scalar path's angles bit for bit and
    marks stale the legs where it raises NoConvergence, with lever arms equal
    and thruster points to a few ulps, across ticks that carry each leg's
    angles (stale or not) to the next."""
    rng = np.random.default_rng(5)
    tracker = _LegTracker(RobotParams(thruster_knee_offset=0.02), Scenario(), GaitConfig())
    stale = 0
    for _ in range(300):
        state = RobotState(theta=rng.uniform(-0.5, 0.5, 3), p=rng.normal(0.0, 0.3, 3))
        # body-frame feet around a 0.25 m stance, some out of reach
        body = tracker.params.hip_offsets + [0.0, 0.0, -0.25] + rng.normal(0.0, 0.1, (4, 3))
        feet = state.p + body @ rpy_matrix(state.theta).T
        q, d_ref, r_ref, stale_ref = scalar_snapshot(tracker, state, feet)
        d, r, stale_legs = tracker.snapshot(state, feet)
        assert tracker.q.tobytes() == q.tobytes()
        assert stale_legs.dtype == bool and np.array_equal(stale_legs, stale_ref)
        assert np.array_equal(d, d_ref) and np.abs(r - r_ref).max() <= 1e-15
        stale += stale_legs.sum()
    assert 100 < stale < 1100  # both reachable and unreachable feet were drawn


def test_tick_work_runs_inside_the_timed_tick():
    """The benchmark times a control tick from the entry of
    _LegTracker.update_plan to the return of MpcController.step, as
    perfbench/layers.py's TickStamps does. Each tick enters the one once and
    returns from the other once, and its feet, IK snapshot, reference, model
    build, QP assembly and solve each run once between the two, never outside."""
    work = ((sim._LegTracker, "tick_feet"), (sim._LegTracker, "snapshot"), (sim, "legs_inverse_kinematics"),
            (sim, "build_reference"), (sim, "build_continuous_model"), (mpc, "assemble_qp"), (qp, "solve"))
    doc = load_bundled("beam_walk")
    doc["duration_s"] = 0.2
    with recording((sim._LegTracker, "update_plan"), (mpc.MpcController, "step"), *work) as events:
        log, failure = run_doc(doc)
    assert failure is None and log.n == 200

    windows, current = [], None
    for event in events:
        if isinstance(event, Call) and event.name == "update_plan":
            assert current is None  # the previous tick returned from step
            current = []
        elif isinstance(event, Return) and event.name == "step":
            windows.append(sorted(current))
            current = None
        elif isinstance(event, Call) and event.name != "step":
            assert current is not None, f"{event.name} ran outside a timed tick"
            current.append(event.name)
    assert current is None and windows == [sorted(name for _, name in work)] * 20


def test_to_csv_of_appended_ticks_writes_each_value_as_9_significant_digits(tmp_path):
    """A log filled through append, whose held inputs, stance flags, ratios and
    pinned stance feet to_csv formats once per tick: every value is written as
    f"{v:.9g}", a held -0.0 as -0 and a held 0.0 as 0, through a last tick of 3
    rows. to_csv rounds the log in place to the values as from_csv reads them
    back, and returns the log's own rows, not a copy."""
    def reference(rows):
        return ",".join(SimLog.HEADER) + "\n" + "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in rows)

    rng = np.random.default_rng(8)
    log = SimLog(np.zeros((23, len(SimLog.HEADER))))
    pinned = rng.normal(0.0, 0.3, (4, 3))
    for tick, (n, stance) in enumerate(((10, [True, False, False, True]), (10, [True, True, True, True]),
                                        (3, [False, True, True, False]))):
        t = (10 * tick + np.arange(n)) * 1e-3
        states = rng.normal(0.0, 1.0, (n, 12)) * 10.0 ** rng.uniform(-12, 3, (n, 12))
        u = ControlInput(grf=rng.normal(0.0, 20.0, (4, 3)), thrust=rng.uniform(0.0, 20.0, 4))
        u.grf[1] = (-0.0, 0.0, -0.0) if tick == 0 else (0.0, -0.0, 0.0)  # held zeros of either sign
        feet = np.where(np.array(stance)[:, None], pinned, pinned + rng.normal(0.0, 0.05, (n, 4, 3)))
        ratios = np.where(stance, rng.uniform(0.0, 0.35, 4), 0.0)
        log.append(t, states, u, feet, np.array(stance), ratios)
    path = tmp_path / "log.csv"
    expected = reference(log.as_array()).encode()
    written = log.to_csv(path)
    assert path.read_bytes() == expected
    read = SimLog.from_csv(path).as_array()
    assert written.dtype == read.dtype and written.shape == read.shape == (23, 49)
    assert written.tobytes() == read.tobytes() == log.as_array().tobytes()
    assert np.shares_memory(written, log.data)


@pytest.mark.parametrize("name", ["beam_walk", "flat_trot", "push_no_thrust", "push_with_thrust"])
def test_a_log_read_back_writes_the_same_log_csv(bundled_runs, tmp_path, name):
    """A log that from_csv reads back from a bundled run's log.csv writes it again byte for byte."""
    path = bundled_runs(name).out / "log.csv"
    SimLog.from_csv(path).to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_push_window_off_the_tick_grid_acts_on_each_step_inside_it():
    """sim.run forms each plant step's push with its block of 100 ticks' tables;
    a step gets the force when its start time is in [t_start, t_end), so a log
    parts from another's at the row after the first step whose push differs.
    A push from 1.0035 s first acts on the step that starts at 1.004 s, so the
    log parts from the unpushed one at 1.005 s. A push from 0.9955 s to 1.0045 s
    crosses the block boundary at tick 100 (1.0 s) and acts on the steps from
    0.996 s through 1.004 s: its log parts from the unpushed one at 0.997 s,
    from the same push stopped at 1.0 s at 1.001 s, from it stopped at 1.0035 s
    at 1.005 s, and from it kept to 1.0055 s at 1.006 s."""
    doc = load_bundled("push_with_thrust")
    doc["duration_s"] = 1.02

    def log_with(*windows):
        pushes = [{"t_start_s": a, "t_end_s": b, "force_n": [0.0, 30.0, 0.0]} for a, b in windows]
        log, outcome = run_doc(dict(doc, disturbances=pushes))
        assert outcome is None
        return log.as_array()

    def parts_at(a, b):
        row = int(np.flatnonzero((a[:, 1:13] != b[:, 1:13]).any(axis=1))[0])
        assert np.array_equal(a[:row], b[:row])
        return round(float(a[row, 0]), 6)

    unpushed, crossing = log_with(), log_with((0.9955, 1.0045))
    assert parts_at(log_with((1.0035, 1.2035)), unpushed) == 1.005
    assert parts_at(crossing, unpushed) == 0.997
    assert parts_at(crossing, log_with((0.9955, 1.0))) == 1.001
    assert parts_at(crossing, log_with((0.9955, 1.0035))) == 1.005
    assert parts_at(crossing, log_with((0.9955, 1.0055))) == 1.006


# flat_trot pushed once, each run ending mid-tick in one of the plant's three failures: the push and
# mpc settings, then the rows logged, the failure, and the state of the last row logged
PLANT_FAILURE_RUNS = {
    sim.NUMERICAL_FAILURE: (
        0.2, [{"t_start_s": 0.1035, "t_end_s": 0.15, "force_n": [0.0, 0.0, 1e308]}] * 2, {},  # inf when summed
        105, 0.105, "non-finite plant state",
        [-0.00021456797409967842, -2.7014687239257905e-05, 6.510405542949053e-05, 0.010288926650320062,
         4.863682858445576e-05, 0.20000145206672393, -0.0016029792621275922, 0.004246761621435596,
         0.00025006412814205934, 0.15875442619432006, 0.0004488894409272132, -9.949156486276857e-05],
    ),
    sim.ROLL_DIVERGENCE: (
        0.5, [{"t_start_s": 0.1, "t_end_s": 0.15, "force_n": [0.0, 1000.0, 0.0]}], {"u_t_max_n": 0.0},
        263, 0.263, "roll -0.602 pitch -0.124 rad",
        [-0.5970468260480971, -0.12390812863136776, -0.011226697390601743, 0.0006658905589030019,
         0.9184751917015573, 0.4276224913704565, -5.405931071375781, -0.27027074663193806,
         -0.18254300675478566, 0.1360201199939734, 6.460803969331783, 1.6011602336311794],
    ),
    sim.HEIGHT_COLLAPSE: (
        0.4, [{"t_start_s": 0.1, "t_end_s": 0.3, "force_n": [0.0, 0.0, -300.0]}], {},
        169, 0.169, "COM height 0.12 m",
        [8.480630706445093e-05, 0.0012209301467803067, 6.982378812843625e-05, 0.021939694272779826,
         5.257043285591076e-05, 0.12142662070606326, 0.009000763336245849, 0.036300979078113756,
         -3.310767546160311e-05, 0.19661582733484292, -0.0001854576466449974, -1.886413817610492],
    ),
}


@pytest.mark.parametrize("kind", sorted(PLANT_FAILURE_RUNS))
def test_run_ends_where_the_plant_tick_stops(kind):
    """A run whose plant tick stops at a failing state logs the tick's states
    before it, each the pre-step state of its row, and ends with that state's
    kind, at the end of its step, with a detail read from it. The row count,
    the failure and the last row's state are pinned."""
    duration, pushes, mpc_doc, rows, t, detail, last = PLANT_FAILURE_RUNS[kind]
    doc = load_bundled("flat_trot")
    doc.update(duration_s=duration, disturbances=pushes)
    doc["mpc"] = dict(doc.get("mpc", {}), **mpc_doc)
    with recording((sim, "step")) as events:
        log, failure = run_doc(doc)
    states, stopped = returns(events, "step")[-1][1]
    assert stopped == failure.kind == kind and failure.detail == detail
    assert failure.t == pytest.approx(t, abs=1e-12) and log.n == rows
    data = log.as_array()
    assert np.array_equal(data[-(len(states) - 1) :, 1:13], states[:-1])
    assert failure.t == pytest.approx(data[-1, 0] + 1e-3, abs=1e-12)
    assert np.abs(data[-1, 1:13] - last).max() <= 1e-9
