"""Nonlinear plant, contact legality checks, and the scenario run loop.

The plant integrates the centroidal accelerations (full-attitude thrust
rotation, exact Euler-angle rates) with semi-implicit Euler at the sim rate.
Commanded ground forces are applied directly to the body; legality (friction
cone, beam footprint) is checked against the command and terminates the run
on violation. Swing feet track their Bezier curves kinematically and stance
feet stay pinned where they touched down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config, setting
from .dynamics import ControlInput, LinearModel, RobotState, build_continuous_model, centroidal_accel, discretize, euler_rates
from .gait import GaitConfig, SwingCurve, build_swing_curve, clamp_lateral, eval_swing, raibert_target, trot_schedule
from .mpc import Command, MpcConfig, MpcController, SolverFailure, build_reference
from .robot import NoConvergence, RobotParams, leg_inverse_kinematics, thruster_point
from .rotations import rot_z, rpy_matrix

SLIP = "Slip"
BEAM_MISS = "BeamMiss"
ROLL_DIVERGENCE = "RollDivergence"
HEIGHT_COLLAPSE = "HeightCollapse"
SOLVER_FAILURE = "SolverFailure"

ROLL_LIMIT = 0.6  # rad, |roll| or |pitch| beyond this is a fall
HEIGHT_FRACTION = 0.6  # fall when COM height drops below this fraction of desired
# N; the QP leaves its rows violated by up to ~1e-10 N per N of their largest
# bound, so a leg this little outside the cone has solver residue, not a slip
SLIP_FORCE_TOL = 1e-6


@dataclass
class Terrain(Config):
    kind: str = setting("kind", "flat", choices=("flat", "beam"))
    width: float = setting("width_m", 0.0)  # m, beam only
    height: float = setting("height_m", 0.0)  # m, beam top above the ground plane
    centerline: float = setting("centerline_y_m", 0.0)  # m, world y

    def rules(self):
        return (("width_m", self.kind != "beam" or self.width > 0, "must be positive on a beam"),)

    def support_height(self) -> float:
        return self.height if self.kind == "beam" else 0.0

    def on_top_face(self, xy) -> bool:
        if self.kind != "beam":
            return True
        return abs(xy[1] - self.centerline) <= self.width / 2.0

    def clamp_foot_y(self, y: float, margin: float) -> float:
        """A foot target's y, kept on a beam's top face ``margin`` clear of its edges."""
        if self.kind != "beam":
            return y
        half = max(self.width / 2.0 - margin, 0.0)
        return np.clip(y, self.centerline - half, self.centerline + half)


@dataclass
class Disturbance(Config):
    t_start: float = setting("t_start_s")
    t_end: float = setting("t_end_s")
    force: np.ndarray = setting("force_n", shape=(3,))  # N, world, applied at the COM

    def rules(self):
        return (("t_end_s", self.t_start < self.t_end, "must be after t_start_s"),)

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass
class Scenario(Config):
    name: str = setting("name", "scenario")
    duration: float = setting("duration_s", 5.0, ge=0)  # s
    sim_dt: float = setting("sim_dt_s", 1e-3, gt=0)  # s
    terrain: Terrain = setting("terrain", Terrain)
    disturbances: list[Disturbance] = setting("disturbances", list)
    command: Command = setting("command", Command)
    mu_real: float = setting("mu_real", 0.5, gt=0)  # plant-side friction limit

    def rules(self):
        # the name is a directory under runs/ when no output directory is given
        plain = self.name not in ("", ".", "..") and not any(c in self.name for c in "/\\\0")
        return (("name", plain, "must be a plain file name: not empty, . or .., no /, \\ or NUL"),)


@dataclass
class FailureEvent:
    kind: str
    t: float
    detail: str


@dataclass
class SimLog:
    """One row per sim step; column order is fixed for the CSV artifact."""

    rows: list = field(default_factory=list)

    HEADER = (
        ["t", "roll", "pitch", "yaw", "px", "py", "pz", "wx", "wy", "wz", "vx", "vy", "vz"]
        + [f"grf{i}{a}" for i in range(4) for a in "xyz"]
        + [f"thrust{i}" for i in range(4)]
        + [f"foot{i}{a}" for i in range(4) for a in "xyz"]
        + [f"stance{i}" for i in range(4)]
        + [f"ratio{i}" for i in range(4)]
    )

    def append(self, t, state: RobotState, u: ControlInput, foot_pos, stance, ratios):
        self.rows.append(
            np.concatenate(
                [
                    [t],
                    state.theta,
                    state.p,
                    state.omega,
                    state.pdot,
                    u.grf.reshape(12),
                    u.thrust,
                    np.asarray(foot_pos).reshape(12),
                    np.asarray(stance, dtype=float),
                    ratios,
                ]
            )
        )

    def as_array(self) -> np.ndarray:
        return np.array(self.rows) if self.rows else np.zeros((0, len(self.HEADER)))

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(",".join(self.HEADER) + "\n")
            for row in self.rows:
                f.write(",".join(f"{v:.9g}" for v in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "SimLog":
        """The log that to_csv wrote to path, with its values as written."""
        with open(path) as f:
            if f.readline().rstrip("\n").split(",") != cls.HEADER:
                raise ValueError(f"{path}: header is not SimLog.HEADER")
            start = f.tell()
            if not f.readline():
                return cls()  # numpy warns when it parses no rows
            f.seek(start)
            return cls(rows=list(np.loadtxt(f, delimiter=",", ndmin=2)))


def friction_ratios(u: ControlInput, stance) -> np.ndarray:
    """Tangential-to-normal force ratio per leg; zero for a leg whose normal
    force is within the slip check's tolerance of zero."""
    ratios = np.zeros(4)
    for i in range(4):
        if stance[i] and u.grf[i, 2] > SLIP_FORCE_TOL:
            ratios[i] = np.hypot(u.grf[i, 0], u.grf[i, 1]) / u.grf[i, 2]
    return ratios


def check_contact_legality(u: ControlInput, foot_pos, stance, terrain: Terrain, mu_real: float):
    """Violations of the no-slip cone and the beam footprint for stance legs."""
    violations = []
    for i in range(4):
        if not stance[i]:
            continue
        fz = u.grf[i, 2]
        tangential = np.hypot(u.grf[i, 0], u.grf[i, 1])
        if fz > 1e-9 and tangential > mu_real * fz + SLIP_FORCE_TOL:
            violations.append((SLIP, i, f"leg {i} friction ratio {tangential / fz:.3f} > mu {mu_real}"))
        if not terrain.on_top_face(foot_pos[i][:2]):
            violations.append(
                (BEAM_MISS, i, f"leg {i} foot y {foot_pos[i][1]:.3f} off the beam top face")
            )
    return violations


def step(
    state: RobotState,
    u: ControlInput,
    d: np.ndarray,
    r: np.ndarray,
    f_ext: np.ndarray,
    params: RobotParams,
    dt: float,
) -> RobotState:
    """Semi-implicit Euler: velocities first, then pose with exact Euler rates."""
    pddot, omegadot = centroidal_accel(state, u, d, r, params)
    pddot = pddot + np.asarray(f_ext) / params.mass
    pdot = state.pdot + pddot * dt
    omega = state.omega + omegadot * dt
    p = state.p + pdot * dt
    theta = state.theta + euler_rates(state.theta, omega) * dt
    return RobotState(theta=theta, p=p, omega=omega, pdot=pdot)


def horizon_models(state, d, r, touchdown, stance_now, stance_seq, params, dt) -> LinearModel:
    """One tick's discrete model, from a single build: one A_k and a B_k per step.

    A leg in the air now that is in stance at step k has its planned touchdown
    (world frame) as lever arm there; every other column is the same at every step.
    """
    landing = np.asarray(stance_seq) & ~np.asarray(stance_now)
    d_seq = np.where(landing[:, :, None], touchdown - state.p, d)
    return discretize(*build_continuous_model(state, d_seq, r, params), dt)


class _LegTracker:
    """Owns foot pinning, swing curves, and warm-started IK joint angles."""

    def __init__(self, params: RobotParams, scenario: Scenario, gait_cfg: GaitConfig):
        self.params = params
        self.scenario = scenario
        self.gait_cfg = gait_cfg
        support = scenario.terrain.support_height()
        com0 = np.array([0.0, 0.0, support + scenario.command.height])
        self.foot_pos = np.zeros((4, 3))
        for i in range(4):
            nominal = clamp_lateral(com0 + params.hip_offsets[i], gait_cfg, com0[1])
            nominal[1] = scenario.terrain.clamp_foot_y(nominal[1], gait_cfg.foot_margin)
            nominal[2] = support
            self.foot_pos[i] = nominal
        self.liftoff = self.foot_pos.copy()
        self.target = self.foot_pos.copy()
        self.curves: list[SwingCurve] = [
            build_swing_curve(self.foot_pos[i], self.foot_pos[i], gait_cfg.apex_height)
            for i in range(4)
        ]
        self.q = np.zeros((4, 3))
        self.q[:, 1] = 0.6
        self.q[:, 2] = -1.2  # knee bent backwards; the IK keeps the branch of the last angles

    def update_plan(self, state: RobotState, prev_stance, stance, command: Command):
        cfg = self.gait_cfg
        support = self.scenario.terrain.support_height()
        rz = rot_z(state.theta[2])
        reach = self.params.leg_reach()
        for i in range(4):
            if prev_stance[i] and not stance[i]:
                self.liftoff[i] = self.foot_pos[i].copy()
            if not stance[i]:
                hip_world = state.p + rz @ self.params.hip_offsets[i]
                p_ref = np.array([hip_world[0], hip_world[1], 0.0])
                target = raibert_target(
                    p_ref, state.pdot, command.v_d, cfg.t_stance, cfg.raibert_gain, support
                )
                target = clamp_lateral(target, cfg, state.p[1])
                # keep the touchdown inside the leg workspace around the hip,
                # then on a beam's top face, which wins when the two conflict
                hip_height = hip_world[2] - support
                r_max = 0.95 * np.sqrt(max(reach**2 - hip_height**2, 4e-4))
                lateral = target[:2] - hip_world[:2]
                dist = np.linalg.norm(lateral)
                if dist > r_max:
                    target[:2] = hip_world[:2] + lateral * (r_max / dist)
                target[1] = self.scenario.terrain.clamp_foot_y(target[1], cfg.foot_margin)
                self.target[i] = target
                self.curves[i] = build_swing_curve(self.liftoff[i], self.target[i], cfg.apex_height)
            if not prev_stance[i] and stance[i]:
                pinned = self.foot_pos[i].copy()
                pinned[2] = support
                self.foot_pos[i] = pinned

    def move_swing_feet(self, phase, stance):
        for i in range(4):
            if not stance[i]:
                pos, _ = eval_swing(self.curves[i], min(phase[i], 1.0))
                self.foot_pos[i] = pos

    def snapshot(self, state: RobotState):
        """COM-relative foot and thruster positions (world frame)."""
        R = rpy_matrix(state.theta)
        d = self.foot_pos - state.p
        r = np.zeros((4, 3))
        events = []
        for i in range(4):
            foot_body = R.T @ (self.foot_pos[i] - state.p)
            try:
                self.q[i] = leg_inverse_kinematics(self.params, i, foot_body, self.q[i])
            except NoConvergence:
                events.append(f"ik_stale_leg{i}")  # reuse last good angles
            r[i] = R @ thruster_point(self.params, i, self.q[i])
        return d, r, events


def run(scenario: Scenario, params: RobotParams, mpc_cfg: MpcConfig, gait_cfg: GaitConfig):
    """Execute a scenario; returns (SimLog, outcome) where outcome is None on success."""
    scenario.validate()
    params.validate("robot")
    mpc_cfg.validate("mpc")
    gait_cfg.validate("gait")

    dt = scenario.sim_dt
    control_every = max(1, round(1.0 / (mpc_cfg.rate_hz * dt)))
    n_steps = round(scenario.duration / dt)
    support = scenario.terrain.support_height()
    command = scenario.command

    state = RobotState(p=np.array([0.0, 0.0, support + command.height]))
    tracker = _LegTracker(params, scenario, gait_cfg)
    controller = MpcController(mpc_cfg)
    log = SimLog()

    # the run's gait, one row per sim step
    gait = trot_schedule(np.arange(n_steps) * dt, gait_cfg.t_stance, gait_cfg.t_swing)
    u = ControlInput()
    failure = None

    for i_step in range(n_steps):
        t = i_step * dt
        stance, phase = gait.stance_flags[i_step], gait.phase[i_step]

        if i_step % control_every == 0:
            prev_stance = gait.stance_flags[max(i_step - control_every, 0)]  # at the last tick
            tracker.update_plan(state, prev_stance, stance, command)
            tracker.move_swing_feet(phase, stance)
            d, r, _ = tracker.snapshot(state)

            ref = build_reference(state, command, mpc_cfg, support)
            stance_seq = trot_schedule(
                t + mpc_cfg.dt * np.arange(mpc_cfg.horizon), gait_cfg.t_stance, gait_cfg.t_swing
            ).stance_flags
            model = horizon_models(state, d, r, tracker.target, stance, stance_seq, params, mpc_cfg.dt)
            try:
                u = controller.step(state, stance_seq, model, ref)
            except SolverFailure as exc:
                failure = FailureEvent(SOLVER_FAILURE, t, str(exc))
                break
            violations = check_contact_legality(
                u, tracker.foot_pos, stance, scenario.terrain, scenario.mu_real
            )
            if violations:
                kind, _, detail = violations[0]
                failure = FailureEvent(kind, t, detail)
                break
        else:
            tracker.move_swing_feet(phase, stance)

        ratios = friction_ratios(u, stance)
        log.append(t, state, u, tracker.foot_pos, stance, ratios)

        f_ext = np.zeros(3)
        for dist in scenario.disturbances:
            if dist.active(t):
                f_ext += dist.force
        d = tracker.foot_pos - state.p
        state = step(state, u, d, r, f_ext, params, dt)

        if max(abs(state.theta[0]), abs(state.theta[1])) > ROLL_LIMIT:
            failure = FailureEvent(
                ROLL_DIVERGENCE,
                t + dt,
                f"roll {state.theta[0]:.3f} pitch {state.theta[1]:.3f} rad",
            )
            break
        if state.p[2] - support < HEIGHT_FRACTION * command.height:
            failure = FailureEvent(
                HEIGHT_COLLAPSE, t + dt, f"COM height {state.p[2] - support:.3f} m"
            )
            break

    return log, failure

