"""Centroidal rigid-body dynamics with knee thrusters, and its linear form.

State vector (gravity-augmented, 13):
    x = [roll, pitch, yaw,  px, py, pz,  wx, wy, wz,  vx, vy, vz,  1]
with omega expressed in the world frame. Input vector (16):
    u = [u_g1(3), u_g2(3), u_g3(3), u_g4(3), u_t1, u_t2, u_t3, u_t4]
where u_g are world-frame ground reaction forces and u_t are non-negative
thrust magnitudes along fixed body-frame directions.

The linear model rotates thrust directions and the inertia tensor by yaw
only (valid for small roll/pitch); the plant (`sim.step`, whose accelerations
`centroidal_accel` reads) rotates thrust by the full attitude. Both take omegadot =
Rz I_b^-1 Rz' tau (yaw-only inertia, no gyroscopic term): 1 s at 1 ms with no torque
from roll 0.3, pitch 0.1, omega (1, 2, 0.5) rad/s changes R I_b R' omega by 18%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .robot import RobotParams
from .rotations import cross, rot_z, skew

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


def centroidal_accel(state: RobotState, u: ControlInput, d: np.ndarray, r: np.ndarray, params: RobotParams):
    """COM linear and angular acceleration under GRFs and thrust: the velocity
    increments of one sim.step of dt = 1 s, with no push and no height test.
    The step updates the velocities first, from the accelerations at state.

    d, r: COM-relative foot and thruster positions (4x3, world frame).
    """
    from .sim import step  # here, not at the top: sim imports this module

    post = step(state, u, d, r, np.zeros(3), params, 1.0, -np.inf, -np.inf)[0][1]
    return post[9:12] - state.pdot, post[6:9] - state.omega


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
    B[..., 6:9, :12] = grf.swapaxes(-3, -2).reshape(stack + (3, 12))
    B[..., 9:12, :12] = _FORCE_SUM / params.mass
    B[..., 6:9, 12:] = iw_inv @ cross(r, e_yaw).T
    B[..., 9:12, 12:] = e_yaw.T / params.mass
    return A, B


def discretize(A: np.ndarray, B: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward-Euler discretization of x_{k+1} = A_k x_k + B_k u_k: the pair (A_k, B_k) =
    (I + A dt, B dt). B may stack one matrix per horizon step, (n, 13, 16), that share A_k."""
    return np.eye(NX) + A * dt, B * dt
