"""Centroidal rigid-body dynamics with knee thrusters, and its linear form.

State vector (gravity-augmented, 13):
    x = [roll, pitch, yaw,  px, py, pz,  wx, wy, wz,  vx, vy, vz,  1]
with omega expressed in the world frame. Input vector (16):
    u = [u_g1(3), u_g2(3), u_g3(3), u_g4(3), u_t1, u_t2, u_t3, u_t4]
where u_g are world-frame ground reaction forces and u_t are non-negative
thrust magnitudes along fixed body-frame directions.

The linear model rotates thrust directions and the inertia tensor by yaw
only (valid for small roll/pitch); `centroidal_accel` rotates thrust by the
full attitude, as the nonlinear plant (`sim.step`) does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .robot import RobotParams
from .rotations import cross, rot_z, rpy_matrix, skew

NX = 13
NU = 16


@dataclass
class RobotState:
    theta: np.ndarray = field(default_factory=lambda: np.zeros(3))  # roll, pitch, yaw
    p: np.ndarray = field(default_factory=lambda: np.zeros(3))  # COM position, world
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))  # world frame
    pdot: np.ndarray = field(default_factory=lambda: np.zeros(3))  # COM velocity, world

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.theta, self.p, self.omega, self.pdot, [1.0]])

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "RobotState":
        """The state of the first 12 entries of x, in as_vector's order."""
        x = np.array(x[:12], dtype=float)
        return cls(theta=x[0:3], p=x[3:6], omega=x[6:9], pdot=x[9:12])


@dataclass
class ControlInput:
    grf: np.ndarray = field(default_factory=lambda: np.zeros((4, 3)))  # N, world
    thrust: np.ndarray = field(default_factory=lambda: np.zeros(4))  # N, >= 0

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.grf.reshape(12), self.thrust])

    @classmethod
    def from_vector(cls, u: np.ndarray) -> "ControlInput":
        u = np.asarray(u, dtype=float)
        return cls(grf=u[:12].reshape(4, 3).copy(), thrust=u[12:16].copy())


@dataclass
class LinearModel:
    """Discrete-time x_{k+1} = A_k x_k + B_k u_k over the augmented state.

    B_k may stack one matrix per horizon step, (n, 13, 16), that share A_k.
    """

    A_k: np.ndarray  # 13x13
    B_k: np.ndarray  # 13x16, or (n, 13, 16)


def centroidal_accel(
    state: RobotState,
    u: ControlInput,
    d: np.ndarray,
    r: np.ndarray,
    params: RobotParams,
):
    """COM linear and angular acceleration under GRFs and thrust.

    d, r: COM-relative foot and thruster positions (4x3, world frame).
    Thrust directions are rotated by the full attitude; the inertia tensor
    is rotated by yaw only.
    """
    R = rpy_matrix(state.theta)
    thrust = (params.thrust_dirs @ R.T) * u.thrust[:, None]  # 4x3, world frame

    force = u.grf.sum(axis=0) + thrust.sum(axis=0)
    pddot = force / params.mass + np.array([0.0, 0.0, -params.gravity])
    tau = (cross(r, thrust) + cross(d, u.grf)).sum(axis=0)
    rz = rot_z(state.theta[2])
    omegadot = np.linalg.solve(rz @ params.inertia_body @ rz.T, tau)
    return pddot, omegadot


# the constant blocks of A and B: p_dot = v, and each leg's force summed into the
# COM acceleration (times 1 / mass)
_A_POSITION = np.zeros((NX, NX))
_A_POSITION[3:6, 9:12] = np.eye(3)
_FORCE_SUM = np.tile(np.eye(3), 4)
_SKEW_BASIS = skew(np.eye(3))  # skew(d) = sum_k d_k skew(e_k)


def build_continuous_model(state: RobotState, d: np.ndarray, r: np.ndarray, params: RobotParams):
    """Continuous A (13x13) and B (13x16) of the yaw-linearized dynamics.

    d may also stack n sets of foot lever arms, (n, 4, 3), that share
    everything else; B is then (n, 13, 16). Columns are emitted for all four
    legs; swing legs are zeroed downstream by input constraints, not by the model.
    The yaw-rotated inverse inertia is Rz I_b^-1 Rz'.
    """
    rz = rot_z(state.theta[2])
    iw_inv = rz @ params.inertia_inv @ rz.T
    e_yaw = params.thrust_dirs @ rz.T  # 4x3

    A = _A_POSITION.copy()
    A[0:3, 6:9] = rz.T  # theta_dot = Rz^T omega
    A[11, 12] = -params.gravity  # gravity via the constant augmented state

    stack = np.shape(d)[:-2]
    # leg i's GRF block is iw_inv @ skew(d_i), formed for every leg by one product
    # with the iw_inv @ skew(e_k); side by side they are (3, 12)
    grf = (d @ (iw_inv @ _SKEW_BASIS).reshape(3, 9)).reshape(stack + (4, 3, 3))
    B = np.zeros(stack + (NX, NU))
    B[..., 6:9, :12] = np.swapaxes(grf, -3, -2).reshape(stack + (3, 12))
    B[..., 9:12, :12] = _FORCE_SUM / params.mass
    B[..., 6:9, 12:] = iw_inv @ cross(r, e_yaw).T
    B[..., 9:12, 12:] = e_yaw.T / params.mass
    return A, B


def discretize(A: np.ndarray, B: np.ndarray, dt: float) -> LinearModel:
    """Forward-Euler discretization: A_k = I + A dt, B_k = B dt (B may be stacked)."""
    return LinearModel(A_k=np.eye(NX) + A * dt, B_k=B * dt)
