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
    dt: float = setting("dt_s", 0.03, gt=0)  # s, prediction step
    rate_hz: float = setting("rate_hz", 100.0, gt=0)
    q_diag: np.ndarray = setting(
        "q_diag", [400.0, 400.0, 100.0, 100.0, 400.0, 800.0, 1.0, 1.0, 1.0, 10.0, 40.0, 20.0, 0.0],
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
    height: float = setting("height_m", 0.25, gt=0)  # m above the support surface


def build_reference(
    state: RobotState, command: Command, config: MpcConfig, support_z: float = 0.0
) -> np.ndarray:
    """Reference states over the horizon, (horizon, 13).

    Positions integrate the velocity command from the current position;
    roll/pitch are zero, yaw integrates the rate command, height is held.
    """
    n_h = config.horizon
    ref = np.zeros((n_h, NX))
    for k in range(1, n_h + 1):
        dt_k = k * config.dt
        row = ref[k - 1]
        row[2] = state.theta[2] + command.yaw_rate * dt_k
        row[3:5] = state.p[:2] + command.v_d[:2] * dt_k
        row[5] = support_z + command.height
        row[8] = command.yaw_rate
        row[9:12] = command.v_d
        row[12] = 1.0
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


def free_inputs(stance_seq: np.ndarray, config: MpcConfig) -> np.ndarray:
    """Mask over the stacked inputs U of the QP variables: stance-leg forces,
    and thrusts when thrusters are enabled."""
    stance = np.asarray(stance_seq, dtype=bool)
    thrust = np.full((len(stance), 4), config.thrusters_enabled)
    return np.hstack([np.repeat(stance, 3, axis=1), thrust]).reshape(-1)


def input_constraints(stance_seq: np.ndarray, config: MpcConfig):
    """Stacked inequality rows G U_free <= h over the free inputs, in U's order.

    Per stance leg: four friction-pyramid rows. Per enabled thruster: upper
    and lower bound. U = 0 satisfies every row.
    """
    mu = config.mu
    pyramid = np.array([[1.0, 0.0, -mu], [-1.0, 0.0, -mu], [0.0, 1.0, -mu], [0.0, -1.0, -mu]])
    n_stance = int(np.count_nonzero(stance_seq))
    thrusters = 4 if config.thrusters_enabled else 0
    n_thrust = thrusters * len(stance_seq)
    G = np.zeros((4 * n_stance + 2 * n_thrust, 3 * n_stance + n_thrust))
    h = np.zeros(G.shape[0])
    row = col = 0
    for stance in stance_seq:
        for _ in range(np.count_nonzero(stance)):
            G[row : row + 4, col : col + 3] = pyramid
            row, col = row + 4, col + 3
        for _ in range(thrusters):
            G[row : row + 2, col] = (1.0, -1.0)
            h[row] = config.u_t_max
            row, col = row + 2, col + 1
    return G, h


def constraint_keys(stance_seq: np.ndarray, config: MpcConfig) -> list[tuple]:
    """Key of each row of input_constraints, in its order: (horizon step, leg
    0-3 or thruster 4-7, pyramid face 0-3 or thrust bound 0-1)."""
    thrusters = [4, 5, 6, 7] if config.thrusters_enabled else []
    return [
        (k, unit, face)
        for k, stance in enumerate(stance_seq)
        for unit in np.flatnonzero(stance).tolist() + thrusters
        for face in range(4 if unit < 4 else 2)
    ]


def assemble_qp(
    state: RobotState,
    stance_seq: np.ndarray,
    model: LinearModel,
    ref: np.ndarray,
    config: MpcConfig,
) -> qp.QpProblem:
    """Condensed QP over the free inputs of the stacked input vector."""
    n_h = config.horizon
    if model.B_k.shape != (n_h, NX, NU) or len(stance_seq) != n_h or ref.shape != (n_h, NX):
        raise DimensionMismatch(
            f"horizon mismatch: B_k shape {model.B_k.shape}, {len(stance_seq)} stance rows, "
            f"ref shape {ref.shape}, expected horizon {n_h}"
        )
    x0 = state.as_vector()
    T, S = condense(model)
    free = free_inputs(stance_seq, config)
    S = S[:, free]
    qbar = np.tile(config.q_diag, n_h)
    rbar = np.tile(config.r_diag, n_h)[free]

    W = np.sqrt(qbar)[:, None] * S
    P = W.T @ W + np.diag(rbar)  # W.T @ W is exactly symmetric
    err = T @ x0 - ref.reshape(-1)
    q_vec = S.T @ (qbar * err)
    G, h = input_constraints(stance_seq, config)
    return qp.QpProblem(P=P, q=q_vec, G=G, h=h)


class MpcController:
    """Single-owner receding-horizon controller; carries the QP warm start.

    The warm start is kept as the keys (constraint_keys) of the rows active at
    the last solve, so that a change of stance pattern, which renumbers the
    rows, seeds the same physical constraints and no others.
    """

    def __init__(self, config: MpcConfig):
        self.config = config.validate()
        self._warm_keys = set()
        self._step_index = 0
        self.last_solution = None

    def step(
        self,
        state: RobotState,
        stance_seq: np.ndarray,
        model: LinearModel,
        ref: np.ndarray,
    ) -> ControlInput:
        problem = assemble_qp(state, stance_seq, model, ref, self.config)
        keys = constraint_keys(stance_seq, self.config)
        warm = [i for i, key in enumerate(keys) if key in self._warm_keys]
        try:
            sol = qp.solve(problem, warm_active=warm)
        except qp.QpError as exc:
            raise SolverFailure(self._step_index, exc) from exc
        self._warm_keys = {keys[i] for i in sol.active_set}
        self._step_index += 1
        self.last_solution = sol

        free = free_inputs(stance_seq, self.config)
        U = np.zeros(free.size)
        U[free] = sol.x_star
        return ControlInput.from_vector(U[:NU])

