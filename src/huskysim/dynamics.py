"""Centroidal rigid-body dynamics with knee thrusters, and its linear form.

The state is the plant's 12-vector, the row `sim.step` returns and `log.csv` stores:
    x = [roll, pitch, yaw,  px, py, pz,  wx, wy, wz,  vx, vy, vz]
in parts THETA, P, OMEGA, V, with omega expressed in the world frame. The linear
model's state (NX = 13) appends a constant 1, which carries gravity. The input is
the 16-vector the QP returns:
    u = [u_g1(3), u_g2(3), u_g3(3), u_g4(3), u_t1, u_t2, u_t3, u_t4]
in parts GRF, world-frame ground reaction forces leg by leg, and THRUST,
non-negative thrust magnitudes along fixed body-frame directions.

The linear model rotates thrust directions and the inertia tensor by yaw
only (valid for small roll/pitch); the plant (`sim.step`, whose accelerations
`centroidal_accel` reads) rotates thrust by the full attitude. Both take omegadot =
Rz I_b^-1 Rz' tau (yaw-only inertia, no gyroscopic term): 1 s at 1 ms with no torque
from roll 0.3, pitch 0.1, omega (1, 2, 0.5) rad/s changes R I_b R' omega by 18%.
"""

from __future__ import annotations

import numpy as np

from .robot import RobotParams
from .rotations import cross, rot_z, skew

NX = 13
NU = 16
THETA, P, OMEGA, V = slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12)  # the state's parts
GRF, THRUST = slice(0, 12), slice(12, 16)  # the input's parts


def centroidal_accel(state: np.ndarray, u: np.ndarray, d: np.ndarray, r: np.ndarray, params: RobotParams):
    """COM linear and angular acceleration under the input u: the velocity increments
    of one sim.step of dt = 1 s from the 12-vector state, with no push and no
    height test. The step updates the velocities first, from the accelerations at state.

    d, r: COM-relative foot and thruster positions (4x3, world frame).
    """
    from .sim import step  # here, not at the top: sim imports this module

    post = step(state, u, d, r, np.zeros(3), params, 1.0, -np.inf, -np.inf)[0][1]
    return post[V] - state[V], post[OMEGA] - state[OMEGA]


# the constant blocks of A and B: p_dot = v, and each leg's force summed into the
# COM acceleration (times 1 / mass)
_A_POSITION = np.zeros((NX, NX))
_A_POSITION[P, V] = np.eye(3)
_FORCE_SUM = np.tile(np.eye(3), 4)
_SKEW_BASIS = skew(np.eye(3))  # skew(d) = sum_k d_k skew(e_k)


def build_continuous_model(state: np.ndarray, d: np.ndarray, r: np.ndarray, params: RobotParams):
    """Continuous A (13x13) and B (13x16) of the yaw-linearized dynamics at the 12-vector state.

    d may also stack n sets of foot lever arms, (n, 4, 3), that share
    everything else; B is then (n, 13, 16). Columns are emitted for all four
    legs; swing legs are zeroed downstream by input constraints, not by the model.
    The yaw-rotated inverse inertia is Rz I_b^-1 Rz'.
    """
    rz = rot_z(state[THETA][2])
    iw_inv = rz @ params.inertia_inv @ rz.T
    e_yaw = params.thrust_dirs @ rz.T  # 4x3

    A = _A_POSITION.copy()
    A[THETA, OMEGA] = rz.T  # theta_dot = Rz^T omega
    A[V, -1] = 0.0, 0.0, -params.gravity  # gravity via the constant augmented state

    stack = np.shape(d)[:-2]
    # leg i's GRF block is iw_inv @ skew(d_i), formed for every leg by one product
    # with the iw_inv @ skew(e_k); side by side they are (3, 12)
    grf = (d @ (iw_inv @ _SKEW_BASIS).reshape(3, 9)).reshape(stack + (4, 3, 3))
    B = np.zeros(stack + (NX, NU))
    B[..., OMEGA, GRF] = grf.swapaxes(-3, -2).reshape(stack + (3, 12))
    B[..., V, GRF] = _FORCE_SUM / params.mass
    B[..., OMEGA, THRUST] = iw_inv @ cross(r, e_yaw).T
    B[..., V, THRUST] = e_yaw.T / params.mass
    return A, B


def discretize(A: np.ndarray, B: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward-Euler discretization of x_{k+1} = A_k x_k + B_k u_k: the pair (A_k, B_k) =
    (I + A dt, B dt). B may stack one matrix per horizon step, (n, 13, 16), that share A_k."""
    return np.eye(NX) + A * dt, B * dt
