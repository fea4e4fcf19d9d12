"""Receding-horizon force controller: condensed dense QP over the input sequence.

Per control tick the horizon dynamics x_{k+1} = A x_k + B_k u_k (gravity inside
the augmented state; one A per tick, one B_k per step) are condensed into
X = T x0 + S U, giving

    P = S' Qbar S + Rbar,   q = S' Qbar (T x0 - X_ref)

over the stacked inputs U (16 per step). Only the free inputs are QP
variables: the forces of legs in stance at that step, and the thrusts when
thrusters are enabled; every other input is zero and is not in the QP. The
inequalities are a four-sided friction pyramid per stance leg (it implies
u_z >= 0 since mu > 0) and [0, u_t_max] per thrust. U = 0 is always feasible,
so the QP cannot be infeasible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .config import Config, setting
from .dynamics import NU, NX, ControlInput, LinearModel, RobotState


class SolverFailure(Exception):
    def __init__(self, step_index: int, cause: Exception):
        self.step_index = step_index
        self.cause = cause
        super().__init__(f"QP solve failed at control step {step_index}: {cause}")


class DimensionMismatch(ValueError):
    pass


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
    mu: float = setting("mu", 0.3535, gt=0)  # pyramid; mu_real / sqrt(2) stays inside the cone
    u_t_max: float = setting("u_t_max_n", 20.0, ge=0)  # N, controller-side thrust cap
    thrusters_enabled: bool = setting("thrusters_enabled", True)


@dataclass
class Command(Config):
    v_d: np.ndarray = setting("v_d_mps", [0.0, 0.0, 0.0], shape=(3,))  # m/s, world
    yaw_rate: float = setting("yaw_rate_rps", 0.0)  # rad/s
    height: float = setting("height_m", 0.2, gt=0)  # m above the support surface


def build_reference(
    state: RobotState, command: Command, config: MpcConfig, support_z: float = 0.0
) -> np.ndarray:
    """Reference states over the horizon, (horizon, 13).

    Positions integrate the velocity command from the current position;
    roll/pitch are zero, yaw integrates the rate command, height is held.
    """
    dt_k = np.arange(1, config.horizon + 1) * config.dt
    ref = np.zeros((config.horizon, NX))
    ref[:, 2] = state.theta[2] + command.yaw_rate * dt_k
    ref[:, 3:5] = state.p[:2] + command.v_d[:2] * dt_k[:, None]
    ref[:, 5] = support_z + command.height
    ref[:, 8] = command.yaw_rate
    ref[:, 9:12] = command.v_d
    ref[:, 12] = 1.0
    return ref


def condense(model: LinearModel):
    """Stack the horizon dynamics into X = T x0 + S U; model.B_k holds one B per step."""
    A_k, B_k = model.A_k, model.B_k
    n_h = len(B_k)
    T = np.empty((n_h, NX, NX))
    S = np.zeros((n_h, NX, n_h * NU))  # block row k: the inputs' effect on x_{k+1}
    T[0], S[0, :, :NU] = A_k, B_k[0]
    for k in range(1, n_h):
        T[k] = A_k @ T[k - 1]
        S[k] = A_k @ S[k - 1]
        S[k, :, k * NU : (k + 1) * NU] = B_k[k]
    return T.reshape(n_h * NX, NX), S.reshape(n_h * NX, n_h * NU)


# per unit of a horizon step, legs 0-3 then thrusters 4-7: its entries of U, and
# its constraint rows (four pyramid faces, or a thrust's upper and lower bound)
_INPUTS = (3, 3, 3, 3, 1, 1, 1, 1)
_ROWS = (4, 4, 4, 4, 2, 2, 2, 2)


def constraint_layout(config: MpcConfig):
    """The full layout G U <= h: every unit's rows at every step over all of U,
    in unit order, sum(_ROWS) rows a step. Per leg: four friction-pyramid rows
    over its force. Per thruster: upper and lower bound. U = 0 satisfies every row."""
    mu = config.mu
    blocks = (  # a leg's rows over its force, then a thruster's over its thrust
        np.array([[1.0, 0.0, -mu], [-1.0, 0.0, -mu], [0.0, 1.0, -mu], [0.0, -1.0, -mu]]),
        np.array([[1.0], [-1.0]]),
    )
    G = np.zeros((sum(_ROWS) * config.horizon, NU * config.horizon))
    h = np.zeros(G.shape[0])
    row = col = 0
    for unit in list(range(8)) * config.horizon:
        G[row : row + _ROWS[unit], col : col + _INPUTS[unit]] = blocks[unit // 4]
        if unit >= 4:
            h[row] = config.u_t_max  # a thrust's upper bound; every other row's is 0
        row, col = row + _ROWS[unit], col + _INPUTS[unit]
    return G, h


def free_layout(layout, stance_seq: np.ndarray, config: MpcConfig):
    """A horizon's share of the layout, from one mask of the units with QP
    variables (stance legs, enabled thrusters): the mask over U of the QP
    variables, G and h over them, and each QP row's index in the layout (the
    same constraint whatever the stance)."""
    free = np.empty((len(stance_seq), 8), dtype=bool)
    free[:, :4], free[:, 4:] = stance_seq, config.thrusters_enabled
    inputs = np.repeat(free, _INPUTS, axis=1).reshape(-1)
    rows = np.repeat(free, _ROWS, axis=1).reshape(-1)
    G, h = layout
    return inputs, G[rows][:, inputs], h[rows], np.flatnonzero(rows)


def input_constraints(stance_seq: np.ndarray, config: MpcConfig):
    """Stacked inequality rows G U_free <= h over the free inputs, in U's order."""
    _, G, h, _ = free_layout(constraint_layout(config), stance_seq, config)
    return G, h


def horizon_weights(config: MpcConfig):
    """The diagonals of sqrt(Qbar), Qbar and Rbar, the state and input weights
    stacked over the horizon; constant for a controller."""
    qbar = np.tile(config.q_diag, config.horizon)
    return np.sqrt(qbar), qbar, np.tile(config.r_diag, config.horizon)


def assemble_qp(
    state: RobotState,
    stance_seq: np.ndarray,
    model: LinearModel,
    ref: np.ndarray,
    config: MpcConfig,
    layout,
    weights,
):
    """Condensed QP over the free inputs of the stacked input vector, with its
    rows from layout = constraint_layout(config) and its weights from
    weights = horizon_weights(config). Returns it, the mask over U of its
    variables and its rows' indices in the layout (see free_layout)."""
    n_h = config.horizon
    if model.B_k.shape != (n_h, NX, NU) or len(stance_seq) != n_h or ref.shape != (n_h, NX):
        raise DimensionMismatch(
            f"horizon mismatch: B_k shape {model.B_k.shape}, {len(stance_seq)} stance rows, "
            f"ref shape {ref.shape}, expected horizon {n_h}"
        )
    x0 = state.as_vector()
    T, S = condense(model)
    free, G, h, rows = free_layout(layout, stance_seq, config)
    S = S[:, free]
    sqrt_qbar, qbar, rbar = weights

    W = sqrt_qbar[:, None] * S
    P = W.T @ W + np.diag(rbar[free])  # W.T @ W is exactly symmetric
    err = T @ x0 - ref.reshape(-1)
    q_vec = S.T @ (qbar * err)
    return qp.QpProblem(P=P, q=q_vec, G=G, h=h), free, rows


class MpcController:
    """Single-owner receding-horizon controller; carries the QP warm start: the
    rows active at the last solve, marked in its constraint layout, so that a
    stance change, which renumbers the QP's rows, seeds the same ones."""

    def __init__(self, config: MpcConfig):
        self.config = config
        self._layout = constraint_layout(config)
        self._weights = horizon_weights(config)
        self._was_active = np.zeros(sum(_ROWS) * config.horizon, dtype=bool)
        self._step_index = 0
        self.last_solution = None

    def step(
        self,
        state: RobotState,
        stance_seq: np.ndarray,
        model: LinearModel,
        ref: np.ndarray,
    ) -> ControlInput:
        problem, free, rows = assemble_qp(
            state, stance_seq, model, ref, self.config, self._layout, self._weights
        )
        try:
            sol = qp.solve(problem, warm_active=np.flatnonzero(self._was_active[rows]).tolist())
        except qp.NotPositiveDefinite as exc:
            # P is positive definite by construction: a state far out of range swamped it
            raise FloatingPointError(str(exc)) from exc
        except qp.QpError as exc:
            raise SolverFailure(self._step_index, exc) from exc
        self._was_active[:] = False
        self._was_active[rows[sol.active_set]] = True
        self._step_index += 1
        self.last_solution = sol

        U = np.zeros(free.size)
        U[free] = sol.x_star
        u = ControlInput.from_vector(U[:NU])
        # the QP meets its bounds up to its row tolerance; its round-off past them
        # (a thrust or a normal force of -1e-11 N) goes no further
        np.clip(u.thrust, 0.0, self.config.u_t_max, out=u.thrust)
        np.maximum(u.grf[:, 2], 0.0, out=u.grf[:, 2])
        return u

