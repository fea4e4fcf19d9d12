"""Receding-horizon force controller: condensed dense QP over the input sequence.

Per control tick the horizon dynamics x_{k+1} = A x_k + B_k u_k (gravity inside
the augmented state; one A per tick, one B_k per step) are condensed into
X = T x0 + S U, giving

    P = S' Qbar S + Rbar,   q = S' Qbar (T x0 - X_ref)

over the stacked inputs U (16 per step). Only the free inputs are QP
variables: the forces of legs in stance at that step, and the thrusts when
their cap u_t_max is above 0; every other input is zero and is not in the QP.
The inequalities are a four-sided friction pyramid per stance leg, inside the
ground's cone (it implies u_z >= 0), and [0, u_t_max] per thrust, each row divided
by its bound where that is above 0, else by its largest coefficient. U = 0 is
always feasible, so the QP cannot be infeasible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qp
from .config import Config, setting
from .dynamics import NU, NX, P, THETA, THRUST


@dataclass
class MpcConfig(Config):
    horizon: int = setting("horizon", 5, ge=1)
    dt: float = setting("dt_s", 0.06, gt=0)  # s, prediction step
    rate_hz: float = setting("rate_hz", 100.0, gt=0)
    q_diag: np.ndarray = setting(
        "q_diag", [300.0, 300.0, 60.0, 100.0, 200.0, 800.0, 15.0, 8.0, 2.0, 20.0, 800.0, 300.0, 0.0],
        shape=(NX,), ge=0,
    )
    r_diag: np.ndarray = setting("r_diag", [1e-4] * 12 + [1e-3] * 4, shape=(NU,), gt=0)
    u_t_max: float = setting("u_t_max_n", 20.0, ge=0)  # N, thrust cap; 0 turns the thrusters off


@dataclass
class Command(Config):
    v_d: np.ndarray = setting("v_d_mps", [0.0, 0.0, 0.0], shape=(3,))  # m/s, world
    yaw_rate: float = setting("yaw_rate_rps", 0.0)  # rad/s
    height: float = setting("height_m", 0.2, gt=0)  # m above the support surface


def build_reference(
    state: np.ndarray, command: Command, config: MpcConfig, support_z: float = 0.0
) -> np.ndarray:
    """Reference model states over the horizon, (horizon, 13), from the 12-vector state.

    Positions integrate the velocity command from the current position;
    roll/pitch are zero, yaw integrates the rate command, height is held.
    """
    (_, _, yaw), (px, py, _), (vx, vy, vz) = state[THETA].tolist(), state[P].tolist(), command.v_d.tolist()
    w, z = command.yaw_rate, support_z + command.height
    rows = []
    for k in range(1, config.horizon + 1):
        dt_k = k * config.dt
        rows.append((0.0, 0.0, yaw + w * dt_k, px + vx * dt_k, py + vy * dt_k, z, 0.0, 0.0, w, vx, vy, vz, 1.0))
    return np.array(rows)


def condense(model):
    """Stack the horizon dynamics into X = T x0 + S U; model is the pair (A_k, B_k), one B_k per step."""
    A_k, B_k = model
    n_h = len(B_k)
    T = np.empty((n_h, NX, NX))
    S = np.zeros((n_h, NX, n_h * NU))  # block row k: the inputs' effect on x_{k+1}
    T[0], S[0, :, :NU] = A_k, B_k[0]
    for k in range(1, n_h):
        np.matmul(A_k, T[k - 1], out=T[k])
        np.matmul(A_k, S[k - 1], out=S[k])
        S[k, :, k * NU : (k + 1) * NU] = B_k[k]
    return T.reshape(n_h * NX, NX), S.reshape(n_h * NX, n_h * NU)


# per unit of a horizon step, legs 0-3 then thrusters 4-7: its entries of U, and
# its constraint rows (four pyramid faces, or a thrust's upper and lower bound)
_INPUTS = (3, 3, 3, 3, 1, 1, 1, 1)
_ROWS = (4, 4, 4, 4, 2, 2, 2, 2)


class HorizonLayout(NamedTuple):
    """One horizon stance pattern's share of a controller's layout: the mask over
    U of the QP variables (stance legs' forces, thrusts of a cap above 0), G and
    h over them, each QP row's index in the layout (the same constraint whatever
    the stance) and the diagonal of Rbar over the variables."""

    free: np.ndarray
    G: np.ndarray
    h: np.ndarray
    rows: np.ndarray
    rbar: np.ndarray


def input_constraints(stance_seq: np.ndarray, config: MpcConfig, mu_real: float):
    """Stacked inequality rows G U_free <= h over the free inputs, in U's order."""
    pattern = MpcController(config, mu_real).horizon(stance_seq)
    return pattern.G, pattern.h


def assemble_qp(state: np.ndarray, stance_seq: np.ndarray, model, ref: np.ndarray, controller: MpcController):
    """Condensed QP at the 12-vector state over the free inputs of the stacked
    input vector, with its rows and weights from the controller. Returns it and
    the stance pattern's HorizonLayout, which holds the mask over U of its
    variables and its rows' indices in the layout."""
    T, S = condense(model)
    pattern = controller.horizon(stance_seq)
    S = S[:, pattern.free]

    W = controller.sqrt_qbar[:, None] * S
    hess = W.T @ W  # exactly symmetric
    hess.flat[:: len(hess) + 1] += pattern.rbar  # the diagonal
    err = T @ np.append(state, 1.0) - ref.reshape(-1)  # the model's state ends in its constant 1
    q_vec = S.T @ (controller.qbar * err)
    return qp.QpProblem(P=hess, q=q_vec, G=pattern.G, h=pattern.h), pattern


class MpcController:
    """Single-owner receding-horizon controller for ground of friction mu_real.
    G U <= h is its full layout: every unit's rows at every step over all of U,
    in unit order, sum(_ROWS) rows a step. sqrt_qbar, qbar and rbar are the
    diagonals of sqrt(Qbar), Qbar and Rbar, the state and input weights stacked
    over the horizon. horizon() gives each horizon stance pattern's HorizonLayout,
    built the first time the pattern comes. The QP warm start is the rows active
    at the last solve, marked in the layout, so that a stance change, which
    renumbers the QP's rows, seeds the same ones."""

    def __init__(self, config: MpcConfig, mu_real: float):
        self.config = config
        mu = 0.707 * mu_real  # 1/sqrt(2) rounded down: the corners sit 1.5e-4 inside the ground's cone
        blocks = (  # a leg's rows over its force, then a thruster's over its thrust
            np.array([[1.0, 0.0, -mu], [-1.0, 0.0, -mu], [0.0, 1.0, -mu], [0.0, -1.0, -mu]]),
            np.array([[1.0], [-1.0]]),
        )
        self.G = np.zeros((sum(_ROWS) * config.horizon, NU * config.horizon))
        self.h = np.tile([0.0] * 16 + [config.u_t_max, 0.0] * 4, config.horizon)  # 16 leg rows, then thrust bounds
        row = col = 0
        for unit in list(range(8)) * config.horizon:
            self.G[row : row + _ROWS[unit], col : col + _INPUTS[unit]] = blocks[unit // 4]
            row, col = row + _ROWS[unit], col + _INPUTS[unit]
        scale = np.where(self.h > 0.0, self.h, np.abs(self.G).max(axis=1))  # each row's unit
        self.G /= scale[:, None]
        self.h /= scale
        self.qbar = np.tile(config.q_diag, config.horizon)
        self.sqrt_qbar, self.rbar = np.sqrt(self.qbar), np.tile(config.r_diag, config.horizon)
        self._patterns = {}
        self._was_active = np.zeros(self.h.size, dtype=bool)

    def horizon(self, stance_seq) -> HorizonLayout:
        stance_seq = np.asarray(stance_seq, dtype=bool)
        key = stance_seq.tobytes()
        found = self._patterns.get(key)
        if found is None:
            units = np.empty((len(stance_seq), 8), dtype=bool)
            units[:, :4], units[:, 4:] = stance_seq, self.config.u_t_max > 0
            free = np.repeat(units, _INPUTS, axis=1).reshape(-1)
            rows = np.repeat(units, _ROWS, axis=1).reshape(-1)
            found = HorizonLayout(free, self.G[rows][:, free], self.h[rows], np.flatnonzero(rows), self.rbar[free])
            self._patterns[key] = found
        return found

    def step(self, state: np.ndarray, stance_seq: np.ndarray, model, ref: np.ndarray) -> np.ndarray:
        problem, pattern = assemble_qp(state, stance_seq, model, ref, self)
        sol = qp.solve(problem, warm_active=np.flatnonzero(self._was_active[pattern.rows]).tolist())
        self._was_active[:] = False
        self._was_active[pattern.rows[sol.active_set]] = True

        U = np.zeros(pattern.free.size)
        U[pattern.free] = sol.x_star
        u = U[:NU]  # the first step's inputs
        # the QP meets its bounds up to its row tolerance; its round-off past them
        # (a thrust or a normal force of -1e-11 N) goes no further
        cap = self.config.u_t_max
        u[THRUST] = [min(max(t, 0.0), cap) for t in u[THRUST].tolist()]  # np.clip's values, a -0.0 kept
        np.maximum(u[2:12:3], 0.0, out=u[2:12:3])
        return u
