"""Centroidal rigid-body dynamics with knee thrusters, and its linear form.

State vector (gravity-augmented, 13):
    x = [roll, pitch, yaw,  px, py, pz,  wx, wy, wz,  vx, vy, vz,  1]
with omega expressed in the world frame. Input vector (16):
    u = [u_g1(3), u_g2(3), u_g3(3), u_g4(3), u_t1, u_t2, u_t3, u_t4]
where u_g are world-frame ground reaction forces and u_t are non-negative
thrust magnitudes along fixed body-frame directions.

The linear model rotates thrust directions and the inertia tensor by yaw
only (valid for small roll/pitch); `centroidal_accel` rotates thrust by the
full attitude and is what the nonlinear plant integrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .robot import RobotParams
from .rotations import cross, rot_z, rpy_matrix, skew

NX = 13
NU = 16


class GimbalLock(Exception):
    """Exact Euler-rate mapping is singular at |pitch| = pi/2."""


@dataclass
class RobotState:
    theta: np.ndarray = field(default_factory=lambda: np.zeros(3))  # roll, pitch, yaw
    p: np.ndarray = field(default_factory=lambda: np.zeros(3))  # COM position, world
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3))  # world frame
    pdot: np.ndarray = field(default_factory=lambda: np.zeros(3))  # COM velocity, world

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.theta, self.p, self.omega, self.pdot, [1.0]])


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


def euler_rate_matrix(theta: np.ndarray) -> np.ndarray:
    """Exact mapping from world-frame omega to (roll, pitch, yaw) rates."""
    cy, sy = np.cos(theta[2]), np.sin(theta[2])
    cp, sp = np.cos(theta[1]), np.sin(theta[1])
    if abs(cp) <= 1e-6:
        raise GimbalLock(f"pitch {theta[1]:.6f} rad is at the Euler-rate singularity")
    return np.array(
        [
            [cy / cp, sy / cp, 0.0],
            [-sy, cy, 0.0],
            [cy * sp / cp, sy * sp / cp, 1.0],
        ]
    )


def euler_rates(theta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Euler-angle rates of the world-frame angular velocity omega."""
    return euler_rate_matrix(theta) @ omega


def yaw_inertia(params: RobotParams, yaw: float) -> np.ndarray:
    rz = rot_z(yaw)
    return rz @ params.inertia_body @ rz.T


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
    omegadot = np.linalg.solve(yaw_inertia(params, state.theta[2]), tau)
    return pddot, omegadot


def build_continuous_model(state: RobotState, d: np.ndarray, r: np.ndarray, params: RobotParams):
    """Continuous A (13x13) and B (13x16) of the yaw-linearized dynamics.

    d may also stack n sets of foot lever arms, (n, 4, 3), that share
    everything else; B is then (n, 13, 16). Columns are emitted for all four
    legs; swing legs are zeroed downstream by input constraints, not by the model.
    """
    rz = rot_z(state.theta[2])
    iw_inv = np.linalg.inv(yaw_inertia(params, state.theta[2]))
    e_yaw = params.thrust_dirs @ rz.T  # 4x3

    A = np.zeros((NX, NX))
    A[0:3, 6:9] = rz.T  # theta_dot = Rz^T omega
    A[3:6, 9:12] = np.eye(3)  # p_dot = v
    A[11, 12] = -params.gravity  # gravity via the constant augmented state

    stack = np.shape(d)[:-2]
    # leg i's GRF block is iw_inv @ skew(d_i); side by side they are (3, 12)
    B = np.zeros(stack + (NX, NU))
    B[..., 6:9, :12] = np.swapaxes(iw_inv @ skew(d), -3, -2).reshape(stack + (3, 12))
    B[..., 9:12, :12] = np.tile(np.eye(3) / params.mass, 4)
    B[..., 6:9, 12:] = iw_inv @ cross(r, e_yaw).T
    B[..., 9:12, 12:] = e_yaw.T / params.mass
    return A, B


def discretize(A: np.ndarray, B: np.ndarray, dt: float) -> LinearModel:
    """Forward-Euler discretization: A_k = I + A dt, B_k = B dt (B may be stacked)."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return LinearModel(A_k=np.eye(NX) + A * dt, B_k=B * dt)
