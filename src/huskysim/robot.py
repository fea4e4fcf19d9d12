"""Robot parameters and serial 3-DOF leg kinematics.

Legs are indexed 0=FL, 1=FR, 2=RL, 3=RR (F/R = front/rear, L/R = left/right;
left legs sit at +y in the body frame). Each leg is a serial chain rooted at
the hip offset: abduction-adduction about the body x axis, a lateral roll
offset, hip swing about y, the thigh, knee flexion about y, the shank.
Joint angles q = (abduction, hip swing, knee), radians.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import Config, setting
from .rotations import rot_x, rot_y

# +1 for left legs (+y side), -1 for right legs
LEG_SIDE_SIGN = np.array([1.0, -1.0, 1.0, -1.0])

_LIMIT_TOL = 1e-9  # rad of round-off accepted at a joint limit


class NoConvergence(Exception):
    """No joint angles reach the IK target: it is off the leg's shell or beyond a joint limit."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"IK target unreachable: {residual:.3e} m outside the leg workspace")


@dataclass
class LinkLengths(Config):
    # m, lateral offset from the abduction axis to the thigh plane
    hip_roll_offset: float = setting("hip_roll_offset", 0.0)
    thigh: float = setting("thigh", 0.17, gt=0)  # m
    shank: float = setting("shank", 0.17, gt=0)  # m


@dataclass
class RobotParams(Config):
    """Physical parameters. Defaults: Husky β, a 6.625 kg platform with hips
    0.08 m above the COM and thrusters at the knees."""

    mass: float = setting("mass", 6.625, gt=0)  # kg
    inertia_body: np.ndarray = setting(
        "inertia_body", [[0.15, 0.0, 0.0], [0.0, 0.20, 0.0], [0.0, 0.0, 0.22]], shape=(3, 3)
    )  # kg m^2, body frame
    hip_offsets: np.ndarray = setting(
        "hip_offsets",
        [[0.15, 0.10, 0.08], [0.15, -0.10, 0.08], [-0.15, 0.10, 0.08], [-0.15, -0.10, 0.08]],
        shape=(4, 3),
    )  # m, body frame
    link_lengths: LinkLengths = setting("link_lengths", LinkLengths)
    thruster_knee_offset: float = setting("thruster_knee_offset", 0.0)  # m, outboard of the knee joint
    # body-frame unit vectors; the thrusters point inboard: -y on left legs, +y on right legs
    thrust_dirs: np.ndarray = setting(
        "thrust_dirs",
        [[0.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 1.0, 0.0]],
        shape=(4, 3),
    )
    gravity: float = setting("gravity", 9.81, gt=0)  # m/s^2
    joint_limits: np.ndarray = setting(
        "joint_limits", [[-0.8, 0.8], [-2.0, 2.0], [-2.6, 2.6]], shape=(3, 2)
    )  # rad, (3, 2) low/high

    def rules(self):
        inertia, limits = self.inertia_body, self.joint_limits
        unit = np.abs(np.linalg.norm(self.thrust_dirs, axis=1) - 1.0) <= 1e-9
        return (
            ("inertia_body", np.allclose(inertia, inertia.T, atol=1e-12)
             and np.all(np.linalg.eigvalsh(inertia) > 0), "must be symmetric positive definite"),
            ("thrust_dirs", unit.all(), "must be unit vectors"),
            ("joint_limits", np.all(limits[:, 0] < limits[:, 1]), "must have low < high in each row"),
        )

    @functools.cached_property
    def inertia_inv(self) -> np.ndarray:
        """inertia_body's inverse, formed once per params for the plant and the
        model; inertia_body is not changed after this is first read."""
        return np.linalg.inv(self.inertia_body)

    def leg_reach(self) -> float:
        return self.link_lengths.thigh + self.link_lengths.shank


def _chain(params: RobotParams, leg_index: int, q: np.ndarray):
    """The abduction rotation rot_x(q[0]) and the body-frame thigh root, knee
    and foot of one leg."""
    ll = params.link_lengths
    s = LEG_SIDE_SIGN[leg_index]
    r1 = rot_x(q[0])
    thigh_root = params.hip_offsets[leg_index] + r1 @ np.array([0.0, s * ll.hip_roll_offset, 0.0])
    r12 = r1 @ rot_y(q[1])
    knee = thigh_root + r12 @ np.array([0.0, 0.0, -ll.thigh])
    foot = knee + r12 @ rot_y(q[2]) @ np.array([0.0, 0.0, -ll.shank])
    return r1, thigh_root, knee, foot


def leg_forward_kinematics(params: RobotParams, leg_index: int, q: np.ndarray):
    """Body-frame foot and knee positions for one leg.

    The knee position is the thruster application point (before any mount
    offset and COM-relative conversion).
    """
    _, _, knee, foot = _chain(params, leg_index, q)
    return foot, knee


def leg_jacobian(params: RobotParams, leg_index: int, q: np.ndarray) -> np.ndarray:
    """Analytic 3x3 Jacobian of the foot position w.r.t. q, body frame."""
    r1, thigh_root, knee, foot = _chain(params, leg_index, q)
    axis1 = np.array([1.0, 0.0, 0.0])
    axis23 = r1 @ np.array([0.0, 1.0, 0.0])  # hip swing and knee share this axis

    J = np.empty((3, 3))
    J[:, 0] = np.cross(axis1, foot - params.hip_offsets[leg_index])
    J[:, 1] = np.cross(axis23, foot - thigh_root)
    J[:, 2] = np.cross(axis23, foot - knee)
    return J


def _closed_form_ik(x, y, z, offset, l1, l2, limits, q_init):
    """The closed-form angles (abduction, hip swing, knee) for the foot at x, y, z
    from the hip, or None; with how far the target is off the reachable shell
    (<= 0 on it) and the two candidates (none off the shell).

    Abduction comes from the y-z projection, which holds the lateral roll
    offset; hip swing and knee from the planar thigh-shank triangle by the law
    of cosines. The knee bends to the side of q_init[2] (backwards when it is
    zero). Of the two abduction branches the one inside the joint limits is
    taken, the one nearer q_init[0] when both are; None when neither is.
    """
    rho = math.hypot(y, z)
    # extent of the planar thigh-shank chain off the abduction axis
    depth = math.sqrt(max(rho * rho - offset * offset, 0.0))
    reach = math.hypot(x, depth)
    outside = max(reach - (l1 + l2), abs(l1 - l2) - reach, abs(offset) - rho)
    if not outside <= 0.0:
        return None, outside, ()
    knee = math.acos(min(1.0, max(-1.0, (reach * reach - l1 * l1 - l2 * l2) / (2.0 * l1 * l2))))
    if q_init[2] <= 0.0:
        knee = -knee
    tilt = math.atan2(l2 * math.sin(knee), l1 + l2 * math.cos(knee))
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = limits
    best, candidates = None, []
    for zp in (-depth, depth):  # foot below, then above, the abduction axis
        q = (math.remainder(math.atan2(z, y) - math.atan2(zp, offset), math.tau),
             math.remainder(math.atan2(-x, -zp) - tilt, math.tau), knee)
        candidates.append(q)
        if (lo0 - _LIMIT_TOL <= q[0] <= hi0 + _LIMIT_TOL and lo1 - _LIMIT_TOL <= q[1] <= hi1 + _LIMIT_TOL
                and lo2 - _LIMIT_TOL <= knee <= hi2 + _LIMIT_TOL
                and (best is None or abs(q[0] - q_init[0]) < abs(best[0] - q_init[0]))):
            best = q
    return best, outside, candidates


def leg_inverse_kinematics(
    params: RobotParams, leg_index: int, target_foot_pos: np.ndarray, q_init: np.ndarray
) -> np.ndarray:
    """Closed-form IK for the body-frame foot target (see _closed_form_ik).

    Raises NoConvergence, with the residual set to the distance outside, when
    the target is off the reachable shell or needs a joint beyond its limits.
    """
    ll = params.link_lengths
    target = np.asarray(target_foot_pos, dtype=float)
    x, y, z = (target - params.hip_offsets[leg_index]).tolist()
    q, outside, candidates = _closed_form_ik(
        x, y, z, float(LEG_SIDE_SIGN[leg_index]) * ll.hip_roll_offset, ll.thigh, ll.shank,
        params.joint_limits.tolist(), q_init,
    )
    if q is None and not candidates:  # off the shell
        raise NoConvergence(outside)
    if q is None:  # every candidate breaks a joint limit
        lo, hi = params.joint_limits[:, 0], params.joint_limits[:, 1]
        feet = (leg_forward_kinematics(params, leg_index, np.clip(c, lo, hi))[0] for c in candidates)
        raise NoConvergence(min(float(np.linalg.norm(foot - target)) for foot in feet))
    return np.array(q)


def legs_inverse_kinematics(params: RobotParams, targets: np.ndarray, q_prev: np.ndarray):
    """The closed-form IK of all four legs, and their thruster points, in one pass of floats.

    targets: (4, 3) body-frame foot targets; q_prev: (4, 3) the last angles.
    Returns the (4, 3) angles, the (4,) mask of legs whose target is
    unreachable (they keep their q_prev row) and the (4, 3) body-frame
    thruster points at the returned angles.
    """
    ll = params.link_lengths
    l1, l2, roll, mount = ll.thigh, ll.shank, ll.hip_roll_offset, params.thruster_knee_offset
    limits = params.joint_limits.tolist()
    q_out, stale, thrusters = [], [], []
    for (tx, ty, tz), (hx, hy, hz), s, q_i in zip(
        np.asarray(targets, dtype=float).tolist(), params.hip_offsets.tolist(),
        LEG_SIDE_SIGN.tolist(), np.asarray(q_prev, dtype=float).tolist(),
    ):
        q, _, _ = _closed_form_ik(tx - hx, ty - hy, tz - hz, s * roll, l1, l2, limits, q_i)
        stale.append(q is None)
        angles = q_i if q is None else q
        q_out.append(angles)
        a, b, _ = angles
        # _chain's knee, pushed outboard by the mount offset
        ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
        side = s * (roll + mount)
        thrusters.append((hx - l1 * sb, hy + ca * side + l1 * sa * cb, hz + sa * side - l1 * ca * cb))
    return np.array(q_out), np.array(stale), np.array(thrusters)
