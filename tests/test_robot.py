import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import thruster_oracle
from huskysim import config
from huskysim.robot import (
    LEG_SIDE_SIGN,
    LinkLengths,
    NoConvergence,
    RobotParams,
    leg_forward_kinematics,
    leg_inverse_kinematics,
    leg_jacobian,
    legs_inverse_kinematics,
)
from huskysim.rotations import rot_x


@pytest.fixture
def params():
    return RobotParams()


def fk_transform_oracle(params, leg_index, q):
    """Independent FK: compose 4x4 homogeneous transforms joint by joint."""

    def rx(a):
        T = np.eye(4)
        T[1:3, 1:3] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
        return T

    def ry(a):
        T = np.eye(4)
        T[0, 0] = np.cos(a)
        T[0, 2] = np.sin(a)
        T[2, 0] = -np.sin(a)
        T[2, 2] = np.cos(a)
        return T

    def trans(v):
        T = np.eye(4)
        T[:3, 3] = v
        return T

    ll = params.link_lengths
    s = LEG_SIDE_SIGN[leg_index]
    T = trans(params.hip_offsets[leg_index])
    T = T @ rx(q[0]) @ trans([0.0, s * ll.hip_roll_offset, 0.0])
    T = T @ ry(q[1]) @ trans([0.0, 0.0, -ll.thigh])
    knee = T[:3, 3].copy()
    T = T @ ry(q[2]) @ trans([0.0, 0.0, -ll.shank])
    return T[:3, 3], knee


def test_fk_zero_pose_fully_extended(params):
    for leg in range(4):
        foot, knee = leg_forward_kinematics(params, leg, np.zeros(3))
        hip = params.hip_offsets[leg]
        assert np.allclose(foot[:2], hip[:2], atol=1e-12)
        assert foot[2] == pytest.approx(hip[2] - 0.34, abs=1e-12)
        assert knee[2] == pytest.approx(hip[2] - 0.17, abs=1e-12)


def test_fk_hip_swing_quarter_turn(params):
    foot, _ = leg_forward_kinematics(params, 0, np.array([0.0, np.pi / 2, 0.0]))
    hip = params.hip_offsets[0]
    delta = foot - hip
    # extended chain rotated into the horizontal sagittal direction
    assert abs(delta[2]) < 1e-12
    assert abs(delta[1]) < 1e-12
    assert abs(abs(delta[0]) - 0.34) < 1e-12


def test_fk_matches_transform_oracle(params):
    q = np.array([0.1, 0.3, -0.5])
    for leg in range(4):
        foot, knee = leg_forward_kinematics(params, leg, q)
        foot_o, knee_o = fk_transform_oracle(params, leg, q)
        assert np.allclose(foot, foot_o, atol=1e-12)
        assert np.allclose(knee, knee_o, atol=1e-12)


def test_fk_oracle_with_roll_offset():
    params = RobotParams()
    params.link_lengths.hip_roll_offset = 0.05
    q = np.array([-0.4, 0.7, -1.1])
    for leg in range(4):
        foot, knee = leg_forward_kinematics(params, leg, q)
        foot_o, knee_o = fk_transform_oracle(params, leg, q)
        assert np.allclose(foot, foot_o, atol=1e-12)
        assert np.allclose(knee, knee_o, atol=1e-12)


def test_jacobian_matches_finite_differences(params):
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(100):
        leg = rng.integers(0, 4)
        q = rng.uniform([-0.7, -1.8, -2.4], [0.7, 1.8, -0.1])
        J = leg_jacobian(params, leg, q)
        J_fd = np.empty((3, 3))
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = eps
            f_plus, _ = leg_forward_kinematics(params, leg, q + dq)
            f_minus, _ = leg_forward_kinematics(params, leg, q - dq)
            J_fd[:, j] = (f_plus - f_minus) / (2 * eps)
        assert np.abs(J - J_fd).max() < 1e-5


def test_knee_column_orthogonal_to_shank(params):
    q = np.zeros(3)
    J = leg_jacobian(params, 0, q)
    foot, knee = leg_forward_kinematics(params, 0, q)
    shank = foot - knee
    assert abs(J[:, 2] @ shank) < 1e-12


def test_jacobian_singular_at_full_extension(params):
    q = np.array([0.1, 0.3, 0.0])  # straight knee
    assert abs(np.linalg.det(leg_jacobian(params, 0, q))) < 1e-9


def test_ik_round_trip(params):
    rng = np.random.default_rng(11)
    for _ in range(50):
        leg = rng.integers(0, 4)
        q_true = rng.uniform([-0.6, -1.2, -2.2], [0.6, 1.2, -0.3])
        target, _ = leg_forward_kinematics(params, leg, q_true)
        q = leg_inverse_kinematics(params, leg, target, np.array([0.0, 0.3, -0.8]))
        foot, _ = leg_forward_kinematics(params, leg, q)
        assert np.linalg.norm(foot - target) < 1e-4


def test_ik_converges_quickly_to_nominal_stance(params):
    hip = params.hip_offsets[0]
    target = hip + np.array([0.0, -0.04, -0.25])
    q = leg_inverse_kinematics(params, 0, target, np.zeros(3))
    foot, _ = leg_forward_kinematics(params, 0, q)
    assert np.linalg.norm(foot - target) < 1e-4


def test_ik_unreachable_target_raises(params):
    hip = params.hip_offsets[0]
    target = hip + np.array([0.0, 0.0, -0.40])  # beyond thigh + shank
    with pytest.raises(NoConvergence) as exc:
        leg_inverse_kinematics(params, 0, target, np.array([0.0, 0.3, -0.8]))
    assert exc.value.residual > 1e-4


# unequal links leave an unreachable core of radius |thigh - shank| around the hip swing axis
OFFSET_LEG = RobotParams(link_lengths=LinkLengths(hip_roll_offset=0.05, thigh=0.19, shank=0.15))
EQUAL_LEG = RobotParams(link_lengths=LinkLengths(hip_roll_offset=0.05))
_LIM = OFFSET_LEG.joint_limits  # the default limits, as on EQUAL_LEG
_KNEE_MIN = 0.01  # rad; a straight knee has no branch to follow
_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def in_limit_angles(draw):
    q0 = draw(st.floats(_LIM[0, 0], _LIM[0, 1]))
    q1 = draw(st.floats(_LIM[1, 0], _LIM[1, 1]))
    knee = draw(st.floats(_KNEE_MIN, _LIM[2, 1])) * draw(st.sampled_from([-1.0, 1.0]))
    return np.array([q0, q1, knee])


@st.composite
def poses(draw):
    params = draw(st.sampled_from([OFFSET_LEG, EQUAL_LEG]))
    leg = draw(st.integers(0, 3))
    return params, leg, draw(in_limit_angles())


@_PROPERTY
@given(poses())
@example((OFFSET_LEG, 1, np.array([-0.8, 1.6, -0.3])))  # right leg near horizontal: abduction wraps
@example((EQUAL_LEG, 0, np.array([0.0, -2.0, -2.6])))  # knee folded over the hip: hip swing wraps
def test_ik_closed_form_round_trip(pose):
    params, leg, q_true = pose
    target, _ = leg_forward_kinematics(params, leg, q_true)
    # only the knee's side and the abduction angle pick the branch
    q_init = np.array([q_true[0], 0.0, np.sign(q_true[2])])
    q = leg_inverse_kinematics(params, leg, target, q_init)
    foot, _ = leg_forward_kinematics(params, leg, q)
    assert np.linalg.norm(foot - target) <= 1e-9
    assert np.abs(q - q_true).max() <= 1e-6


@_PROPERTY
@given(
    st.integers(0, 3),
    st.one_of(st.floats(0.3401, 0.6), st.floats(0.0, 0.0399)),
    st.floats(-np.pi, np.pi),
    st.floats(-np.pi, np.pi),
)
def test_ik_off_shell_target_raises(leg, reach, abduction, planar_angle):
    """Targets beyond thigh + shank, or inside |thigh - shank|, of the planar chain."""
    ll = OFFSET_LEG.link_lengths
    side = LEG_SIDE_SIGN[leg] * ll.hip_roll_offset
    planar = np.array([reach * np.sin(planar_angle), side, reach * np.cos(planar_angle)])
    target = OFFSET_LEG.hip_offsets[leg] + rot_x(abduction) @ planar
    with pytest.raises(NoConvergence) as exc:
        leg_inverse_kinematics(OFFSET_LEG, leg, target, np.array([0.0, 0.3, -0.8]))
    outside = max(reach - (ll.thigh + ll.shank), abs(ll.thigh - ll.shank) - reach)
    assert exc.value.residual > 0
    # near reach 0 the depth sqrt(rho^2 - offset^2) keeps only half the digits of the target
    assert exc.value.residual == pytest.approx(outside, abs=1e-8)


def test_ik_outside_joint_limits_raises(params):
    # reachable by the chain, but only with the hip swung past its 2 rad limit
    target, _ = leg_forward_kinematics(params, 0, np.array([0.0, 2.5, -0.5]))
    with pytest.raises(NoConvergence) as exc:
        leg_inverse_kinematics(params, 0, target, np.array([0.0, 0.3, -0.8]))
    assert exc.value.residual > 0


def test_ik_knee_branch_follows_q_init(params):
    target, _ = leg_forward_kinematics(params, 1, np.array([0.1, 0.4, -1.0]))
    back = leg_inverse_kinematics(params, 1, target, np.array([0.0, 0.0, -0.3]))
    forward = leg_inverse_kinematics(params, 1, target, np.array([0.0, 0.0, 0.3]))
    assert back[2] == pytest.approx(-1.0, abs=1e-12)
    assert forward[2] == pytest.approx(1.0, abs=1e-12)
    for q in (back, forward):
        assert np.linalg.norm(leg_forward_kinematics(params, 1, q)[0] - target) < 1e-12


MOUNTED_LEG = RobotParams(link_lengths=LinkLengths(hip_roll_offset=0.05, thigh=0.19, shank=0.15),
                          thruster_knee_offset=0.02)


@st.composite
def four_leg_targets(draw):
    """Body-frame foot targets and last angles for all four legs. A leg's target
    is its foot at angles that may break a joint limit, or a point near its
    hip that may lie off its shell."""
    params = draw(st.sampled_from([OFFSET_LEG, EQUAL_LEG, MOUNTED_LEG]))
    targets, q_prev = [], []
    for leg in range(4):
        if draw(st.booleans()):
            angles = [draw(st.floats(-np.pi, np.pi)) for _ in range(3)]
            targets.append(leg_forward_kinematics(params, leg, np.array(angles))[0])
        else:
            targets.append(params.hip_offsets[leg] + [draw(st.floats(-0.4, 0.4)) for _ in range(3)])
        q_prev.append([draw(st.floats(lo, hi)) for lo, hi in _LIM])
    return params, np.array(targets), np.array(q_prev)


@_PROPERTY
@given(four_leg_targets())
def test_four_leg_ik_is_the_scalar_ik(case):
    """legs_inverse_kinematics gives each leg leg_inverse_kinematics' angles bit
    for bit, keeps the last angles of a leg whose target it raises on, and puts
    the thruster at FK's knee plus the mount offset."""
    params, targets, q_prev = case
    q, stale, thrusters = legs_inverse_kinematics(params, targets, q_prev)
    for i in range(4):
        try:
            expected, raised = leg_inverse_kinematics(params, i, targets[i], q_prev[i]), False
        except NoConvergence:
            expected, raised = q_prev[i], True
        assert stale[i] == raised
        assert q[i].tobytes() == expected.tobytes()
        # np.cos and math.cos may round apart by an ulp: a few ulps of a 0.5 m point
        assert np.abs(thrusters[i] - thruster_oracle(params, i, q[i])).max() <= 1e-15


@st.composite
def four_leg_poses(draw):
    """In-limit angles of all four legs, and maybe one leg (its index, else
    None) whose target is moved off its shell, beyond thigh + shank."""
    params = draw(st.sampled_from([OFFSET_LEG, EQUAL_LEG, MOUNTED_LEG]))
    q_true = np.array([draw(in_limit_angles()) for _ in range(4)])
    off = draw(st.one_of(st.none(), st.integers(0, 3)))
    angles = st.floats(-np.pi, np.pi)
    return params, q_true, off, (draw(st.floats(0.3401, 0.6)), draw(angles), draw(angles))


@settings(max_examples=100, deadline=None, derandomize=True)  # four legs an example
@given(four_leg_poses())
def test_four_leg_ik_round_trips_fk(case):
    """The run's IK on its own: feet placed by FK at in-limit angles come back
    through FK to 1e-9, every thruster sits at FK's knee plus the mount offset,
    and a leg with an off-shell target is stale and keeps its q_prev row."""
    params, q_true, off, (reach, abduction, planar_angle) = case
    targets = np.array([leg_forward_kinematics(params, leg, q_true[leg])[0] for leg in range(4)])
    if off is not None:
        side = LEG_SIDE_SIGN[off] * params.link_lengths.hip_roll_offset
        planar = np.array([reach * np.sin(planar_angle), side, reach * np.cos(planar_angle)])
        targets[off] = params.hip_offsets[off] + rot_x(abduction) @ planar
    # only the knee's side and the abduction angle pick the branch
    q_prev = np.column_stack([q_true[:, 0], np.zeros(4), np.sign(q_true[:, 2])])
    q, stale, thrusters = legs_inverse_kinematics(params, targets, q_prev)
    assert stale.tolist() == [leg == off for leg in range(4)]
    for leg in range(4):
        assert np.abs(thrusters[leg] - thruster_oracle(params, leg, q[leg])).max() <= 1e-15
        if leg == off:
            assert q[leg].tobytes() == q_prev[leg].tobytes()
        else:
            foot, _ = leg_forward_kinematics(params, leg, q[leg])
            assert np.linalg.norm(foot - targets[leg]) <= 1e-9


def test_params_validation_rejects_bad_inertia():
    with pytest.raises(ValueError):
        RobotParams(inertia_body=np.diag([-1.0, 1.0, 1.0]))


def test_params_from_dict_roundtrip():
    p = config.load(
        RobotParams,
        {
            "mass": 7.0,
            "link_lengths": {"hip_roll_offset": 0.02, "thigh": 0.18, "shank": 0.16},
        },
    )
    assert p.mass == 7.0
    assert p.link_lengths.thigh == 0.18
    assert p.leg_reach() == pytest.approx(0.34)


def test_params_from_json_document(tmp_path):
    import json

    doc = {
        "mass": 6.0,
        "inertia_body": [[0.06, 0, 0], [0, 0.11, 0], [0, 0, 0.13]],
        "hip_offsets": [[0.15, 0.1, 0], [0.15, -0.1, 0], [-0.15, 0.1, 0], [-0.15, -0.1, 0]],
        "link_lengths": {"hip_roll_offset": 0.0, "thigh": 0.17, "shank": 0.17},
        "thruster_knee_offset": 0.02,
        "thrust_dirs": [[0, -1, 0], [0, 1, 0], [0, -1, 0], [0, 1, 0]],
        "gravity": 9.81,
    }
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(doc))
    p = config.load(RobotParams, json.loads(path.read_text()))
    assert p.mass == 6.0
    assert p.thruster_knee_offset == 0.02
    assert p.inertia_body[2, 2] == 0.13
