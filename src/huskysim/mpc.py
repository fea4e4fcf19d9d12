"""Receding-horizon force controller: condensed dense QP over the input sequence.

Per control tick the horizon dynamics x_{k+1} = A x_k + B u_k (gravity inside
the augmented state) are condensed into X = T x0 + S U, giving

    P = S' Qbar S + Rbar,   q = S' Qbar (T x0 - X_ref)

over the stacked inputs U (16 per step). Only the free inputs are QP
variables: the forces of legs in stance at that step, and the thrusts when
thrusters are enabled; every other input is zero and is not in the QP. The
inequalities are a four-sided friction pyramid per stance leg (it implies
u_z >= 0 since mu > 0) and [0, u_t_max] per thrust. U = 0 is always feasible,
so the QP cannot be infeasible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qp
from .dynamics import NU, NX, ControlInput, LinearModel, RobotState, build_continuous_model, discretize

_DEFAULT_Q_DIAG = [400.0, 400.0, 100.0, 100.0, 400.0, 800.0, 1.0, 1.0, 1.0, 10.0, 40.0, 20.0, 0.0]
_DEFAULT_R_DIAG = [1e-4] * 12 + [1e-3] * 4


class SolverFailure(Exception):
    def __init__(self, step_index: int, cause: Exception):
        self.step_index = step_index
        self.cause = cause
        super().__init__(f"QP solve failed at control step {step_index}: {cause}")


class DimensionMismatch(ValueError):
    pass


@dataclass
class MpcConfig:
    horizon: int = 5
    dt: float = 0.03  # s, prediction step
    rate_hz: float = 100.0
    q_diag: np.ndarray = field(default_factory=lambda: np.array(_DEFAULT_Q_DIAG))
    r_diag: np.ndarray = field(default_factory=lambda: np.array(_DEFAULT_R_DIAG))
    mu: float = 0.5
    u_t_max: float = 20.0  # N, controller-side thrust cap
    thrusters_enabled: bool = True

    def __post_init__(self):
        self.q_diag = np.asarray(self.q_diag, dtype=float)
        self.r_diag = np.asarray(self.r_diag, dtype=float)

    def validate(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt_s must be finite and positive, got {self.dt}")
        if not 0 < self.rate_hz < np.inf:
            raise ValueError(f"rate_hz must be finite and positive, got {self.rate_hz}")
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not 0 <= self.u_t_max < np.inf:
            raise ValueError(f"u_t_max_n must be finite and non-negative, got {self.u_t_max}")
        if self.q_diag.shape != (NX,) or np.any(self.q_diag < 0):
            raise ValueError(f"q_diag must be {NX} non-negative weights")
        if self.r_diag.shape != (NU,) or np.any(self.r_diag <= 0):
            raise ValueError(f"r_diag must be {NU} positive weights")
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "MpcConfig":
        cfg = cls()
        cfg.horizon = int(d.get("horizon", cfg.horizon))
        cfg.dt = float(d.get("dt_s", cfg.dt))
        cfg.rate_hz = float(d.get("rate_hz", cfg.rate_hz))
        if "q_diag" in d:
            cfg.q_diag = np.asarray(d["q_diag"], dtype=float)
        if "r_diag" in d:
            cfg.r_diag = np.asarray(d["r_diag"], dtype=float)
        cfg.mu = float(d.get("mu", cfg.mu))
        cfg.u_t_max = float(d.get("u_t_max_n", cfg.u_t_max))
        cfg.thrusters_enabled = bool(d.get("thrusters_enabled", cfg.thrusters_enabled))
        return cfg.validate()


@dataclass
class Command:
    v_d: np.ndarray = field(default_factory=lambda: np.zeros(3))  # m/s, world
    yaw_rate: float = 0.0  # rad/s
    height: float = 0.25  # m above the support surface

    def validate(self):
        if self.v_d.shape != (3,) or not np.isfinite(self.v_d).all():
            raise ValueError(f"v_d_mps must be 3 finite values, got {self.v_d.tolist()}")
        if not np.isfinite(self.yaw_rate):
            raise ValueError(f"yaw_rate_rps must be finite, got {self.yaw_rate}")
        if not 0 < self.height < np.inf:
            raise ValueError(f"height_m must be finite and positive, got {self.height}")
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "Command":
        return cls(
            v_d=np.asarray(d.get("v_d_mps", [0.0, 0.0, 0.0]), dtype=float),
            yaw_rate=float(d.get("yaw_rate_rps", 0.0)),
            height=float(d.get("height_m", 0.25)),
        ).validate()


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


def condense(models: list[LinearModel]):
    """Stack the horizon dynamics into X = T x0 + S U."""
    n_h = len(models)
    T = np.zeros((n_h * NX, NX))
    S = np.zeros((n_h * NX, n_h * NU))
    prod = np.eye(NX)
    for k in range(n_h):
        Ak, Bk = models[k].A_k, models[k].B_k
        prod = Ak @ prod
        T[k * NX : (k + 1) * NX] = prod
        S[k * NX : (k + 1) * NX, k * NU : (k + 1) * NU] = Bk
        for i in range(k):
            S[k * NX : (k + 1) * NX, i * NU : (i + 1) * NU] = (
                Ak @ S[(k - 1) * NX : k * NX, i * NU : (i + 1) * NU]
            )
    return T, S


def free_inputs(stance_seq: list[np.ndarray], config: MpcConfig) -> np.ndarray:
    """Mask over the stacked inputs U of the QP variables: stance-leg forces,
    and thrusts when thrusters are enabled."""
    stance = np.asarray(stance_seq, dtype=bool)
    thrust = np.full((len(stance), 4), config.thrusters_enabled)
    return np.hstack([np.repeat(stance, 3, axis=1), thrust]).reshape(-1)


def input_constraints(stance_seq: list[np.ndarray], config: MpcConfig):
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


def constraint_keys(stance_seq: list[np.ndarray], config: MpcConfig) -> list[tuple]:
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
    stance_seq: list[np.ndarray],
    models: list[LinearModel],
    ref: np.ndarray,
    config: MpcConfig,
) -> qp.QpProblem:
    """Condensed QP over the free inputs of the stacked input vector."""
    n_h = config.horizon
    if len(models) != n_h or len(stance_seq) != n_h or ref.shape != (n_h, NX):
        raise DimensionMismatch(
            f"horizon mismatch: {len(models)} models, {len(stance_seq)} stance rows, "
            f"ref shape {ref.shape}, expected horizon {n_h}"
        )
    x0 = state.as_vector()
    T, S = condense(models)
    free = free_inputs(stance_seq, config)
    S = S[:, free]
    qbar = np.tile(config.q_diag, n_h)
    rbar = np.tile(config.r_diag, n_h)[free]

    P = S.T @ (qbar[:, None] * S) + np.diag(rbar)
    P = 0.5 * (P + P.T)
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
        stance_seq: list[np.ndarray],
        models: list[LinearModel],
        ref: np.ndarray,
    ) -> ControlInput:
        problem = assemble_qp(state, stance_seq, models, ref, self.config)
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


def mpc_step(
    state: RobotState,
    stance_seq: list[np.ndarray],
    d: np.ndarray,
    r: np.ndarray,
    ref: np.ndarray,
    config: MpcConfig,
    params,
) -> ControlInput:
    """One cold-started solve with models frozen at the current d, r snapshot.

    Use MpcController for warm-started receding-horizon operation.
    """
    models = [discretize(*build_continuous_model(state, d, r, params), config.dt)] * len(stance_seq)
    return MpcController(config).step(state, stance_seq, models, ref)
