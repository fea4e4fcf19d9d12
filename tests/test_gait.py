import numpy as np
import pytest

from huskysim import config
from huskysim.dynamics import RobotState
from huskysim.gait import (
    PAIR_A,
    PAIR_B,
    GaitConfig,
    PhaseOutOfRange,
    build_swing_curve,
    clamp_lateral,
    eval_swing,
    raibert_target,
    trot_schedule,
)
from huskysim.mpc import Command
from huskysim.robot import RobotParams
from huskysim.sim import Scenario, Terrain, _LegTracker


def de_casteljau(points, s):
    pts = [p.copy() for p in points]
    while len(pts) > 1:
        pts = [(1 - s) * a + s * b for a, b in zip(pts[:-1], pts[1:])]
    return pts[0]


def test_schedule_initial_condition():
    g = trot_schedule(0.0, 0.3, 0.3)
    for leg in PAIR_A:
        assert g.stance_flags[leg]
        assert g.phase[leg] == 0.0
    for leg in PAIR_B:
        assert not g.stance_flags[leg]
        assert g.phase[leg] == 0.0


def test_schedule_periodicity():
    g0 = trot_schedule(0.0, 0.3, 0.3)
    g1 = trot_schedule(0.6, 0.3, 0.3)
    assert np.array_equal(g0.stance_flags, g1.stance_flags)
    assert np.allclose(g0.phase, g1.phase, atol=1e-12)


def test_schedule_mid_stance_phase():
    g = trot_schedule(0.15, 0.3, 0.3)
    for leg in PAIR_A:
        assert g.stance_flags[leg]
        assert g.phase[leg] == pytest.approx(0.5)


def test_schedule_pairs_alternate():
    for t in np.linspace(0.0, 0.59, 25):
        g = trot_schedule(t, 0.3, 0.3)
        assert g.stance_flags[0] == g.stance_flags[3]
        assert g.stance_flags[1] == g.stance_flags[2]
        assert g.stance_flags[0] != g.stance_flags[1]


def test_schedule_duty():
    # over one period each leg accumulates exactly t_stance of stance time
    T_s, T_sw = 0.3, 0.2
    dt = 1e-4
    period = T_s + T_sw
    ts = np.arange(0.0, period, dt)
    stance_time = np.zeros(4)
    for t in ts:
        stance_time += trot_schedule(t, T_s, T_sw).stance_flags * dt
    assert np.allclose(stance_time, T_s, atol=2 * dt)


def test_schedule_table_matches_scalar_calls():
    ts = np.arange(1000) * 1e-3
    table = trot_schedule(ts, 0.3, 0.15)
    assert table.stance_flags.shape == table.phase.shape == (1000, 4)
    for t, flags, phase in zip(ts, table.stance_flags, table.phase):
        g = trot_schedule(float(t), 0.3, 0.15)
        assert np.array_equal(g.stance_flags, flags) and np.array_equal(g.phase, phase)
    assert trot_schedule(np.zeros(0), 0.3, 0.15).phase.shape == (0, 4)  # a run of no steps


def test_raibert_zero_motion():
    p_ref = np.array([0.1, -0.2, 0.0])
    target = raibert_target(p_ref, np.zeros(3), np.zeros(3), 0.3, 0.03)
    assert np.allclose(target, p_ref)


def test_raibert_feedforward_only():
    v = np.array([0.2, 0.0, 0.0])
    target = raibert_target(np.zeros(3), v, v, 0.3, 0.03)
    assert np.allclose(target, [0.03, 0.0, 0.0], atol=1e-15)


def test_raibert_velocity_error_term():
    # p_ref + v T_s/2 + k (v - v_d) = 0.2*0.15 + 0.03*0.1 = 0.033
    target = raibert_target(
        np.zeros(3), np.array([0.2, 0.0, 0.0]), np.array([0.1, 0.0, 0.0]), 0.3, 0.03
    )
    assert target[0] == pytest.approx(0.033, abs=1e-15)


def test_raibert_affine_in_velocity_error():
    p_ref = np.zeros(3)
    v_d = np.array([0.1, 0.0, 0.0])
    t1 = raibert_target(p_ref, v_d + [0.0, 0.1, 0.0], v_d, 0.3, 0.03)
    t2 = raibert_target(p_ref, v_d + [0.0, 0.2, 0.0], v_d, 0.3, 0.03)
    base = raibert_target(p_ref, v_d, v_d, 0.3, 0.03)
    assert np.allclose(t2[1] - base[1], 2.0 * (t1[1] - base[1]), atol=1e-15)


def test_raibert_snaps_to_terrain():
    target = raibert_target(np.array([0.0, 0.0, 0.3]), np.ones(3), np.zeros(3), 0.3, 0.03, terrain_z=0.1)
    assert target[2] == 0.1


def test_swing_curve_degenerate_step_in_place():
    a = np.array([0.2, -0.1, 0.0])
    cp = build_swing_curve(a, a, 0.05)
    assert np.allclose(cp[0], a) and np.allclose(cp[1], a)
    assert np.allclose(cp[3], a) and np.allclose(cp[4], a)
    assert np.allclose(cp[2][:2], a[:2])
    for s in (0.1, 0.5, 0.9):
        pos, _ = eval_swing(cp, s)
        assert np.allclose(pos[:2], a[:2], atol=1e-15)


def test_swing_curve_apex():
    cp = build_swing_curve(np.zeros(3), np.array([0.1, 0.0, 0.0]), 0.05)
    assert np.allclose(cp[2], [0.05, 0.0, 0.05])


def test_swing_midpoint_bernstein_weights():
    rng = np.random.default_rng(0)
    cp = build_swing_curve(rng.normal(size=3), rng.normal(size=3), 0.07)
    pos, _ = eval_swing(cp, 0.5)
    assert np.allclose(pos, (5 * cp[0] + 6 * cp[2] + 5 * cp[4]) / 16, atol=1e-14)


def test_swing_endpoints_and_zero_velocity():
    lift = np.array([0.0, 0.1, 0.0])
    tgt = np.array([0.12, 0.08, 0.0])
    cp = build_swing_curve(lift, tgt, 0.05)
    p0, v0 = eval_swing(cp, 0.0)
    p1, v1 = eval_swing(cp, 1.0)
    assert np.allclose(p0, lift) and np.allclose(p1, tgt)
    assert np.all(v0 == 0.0)  # exact, from the duplicated control points
    assert np.all(v1 == 0.0)


def test_swing_matches_de_casteljau():
    rng = np.random.default_rng(1)
    cp = build_swing_curve(rng.normal(size=3), rng.normal(size=3), 0.05)
    for s in [0.25] + list(rng.uniform(0, 1, 10)):
        pos, _ = eval_swing(cp, s)
        assert np.abs(pos - de_casteljau(list(cp), s)).max() < 1e-12


def test_swing_convex_hull():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        cp = build_swing_curve(rng.normal(size=3), rng.normal(size=3), rng.uniform(0.01, 0.2))
        lo, hi = cp.min(axis=0) - 1e-12, cp.max(axis=0) + 1e-12
        pos, _ = eval_swing(cp, rng.uniform(0, 1))
        assert np.all(pos >= lo) and np.all(pos <= hi)


def test_swing_phase_out_of_range():
    cp = build_swing_curve(np.zeros(3), np.ones(3), 0.05)
    with pytest.raises(PhaseOutOfRange):
        eval_swing(cp, 1.2)
    with pytest.raises(PhaseOutOfRange):
        eval_swing(cp, -0.1)


def test_batched_swing_matches_scalar_calls():
    """Curves built for four legs at once and evaluated at a tick's phases
    equal one scalar build and evaluation per leg and phase."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        lift, tgt = rng.normal(size=(2, 4, 3))
        apex = rng.uniform(0.01, 0.2)
        s = rng.uniform(0, 1, (10, 4))
        s[0, 0], s[-1, -1] = 0.0, 1.0
        pos, vel = eval_swing(build_swing_curve(lift, tgt, apex), s)
        assert pos.shape == vel.shape == (10, 4, 3)
        for j in range(10):
            for leg in range(4):
                p, v = eval_swing(build_swing_curve(lift[leg], tgt[leg], apex), s[j, leg])
                assert np.abs(p - pos[j, leg]).max() <= 1e-15
                assert np.abs(v - vel[j, leg]).max() <= 1e-15
        s[3, 2] = rng.choice([-0.1, 1.2, np.nan])
        with pytest.raises(PhaseOutOfRange):
            eval_swing(build_swing_curve(lift, tgt, apex), s)


def test_beam_clamps_foot_targets():
    beam = Terrain(kind="beam", width=0.1, centerline=0.02)
    # centerline +/- (width / 2 - margin)
    assert beam.clamp_foot_y(0.2, 0.01) == pytest.approx(0.06)
    assert beam.clamp_foot_y(-0.2, 0.01) == pytest.approx(-0.02)
    assert beam.clamp_foot_y(0.03, 0.01) == 0.03
    assert beam.clamp_foot_y(0.2, 0.08) == 0.02  # a margin past the half width leaves the centerline
    assert Terrain().clamp_foot_y(0.2, 0.01) == 0.2  # flat ground sets no strip

    # the planner takes the strip from the terrain: feet below hips at y = +/-0.1
    # start on the beam, and so do the touchdown targets of legs that lift off
    tracker = _LegTracker(RobotParams(), Scenario(terrain=beam), GaitConfig())
    assert np.allclose(tracker.foot_pos[:, 1], [0.06, -0.02, 0.06, -0.02])
    state = RobotState(p=np.array([0.0, 0.05, 0.25]))
    tracker.update_plan(state, np.ones(4, dtype=bool), np.zeros(4, dtype=bool), Command())
    assert np.allclose(tracker.target[:, 1], [0.06, -0.02, 0.06, -0.02])
    assert np.allclose(tracker.target[:, 0], [0.15, 0.15, -0.15, -0.15])

    # with the body off the beam the leg-workspace clamp pulls the left targets
    # off the top face; the beam clamp comes after it and puts them back
    centred = Terrain(kind="beam", width=0.1)
    tracker = _LegTracker(RobotParams(), Scenario(terrain=centred), GaitConfig())
    state = RobotState(p=np.array([0.0, 0.3, 0.25]))
    tracker.update_plan(state, np.ones(4, dtype=bool), np.zeros(4, dtype=bool), Command())
    assert np.allclose(tracker.target[:, 1], 0.04)
    assert all(centred.on_top_face(target[:2]) for target in tracker.target)


def test_body_relative_stance_clamp():
    cfg = GaitConfig(stance_width=0.16)
    target = clamp_lateral(np.array([0.0, 0.5, 0.0]), cfg, body_y=0.3)
    assert target[1] == pytest.approx(0.38)
    # no stance width leaves the natural stance
    assert clamp_lateral(np.array([0.0, 0.5, 0.0]), GaitConfig(), body_y=0.3)[1] == 0.5


def test_gait_config_from_dict():
    cfg = config.load(
        GaitConfig,
        {
            "t_stance_s": 0.25,
            "t_swing_s": 0.2,
            "foot_margin_m": 0.02,
            "stance_width_m": 0.12,
        },
    )
    assert cfg.t_stance == 0.25
    assert cfg.foot_margin == 0.02
    assert cfg.stance_width == 0.12
