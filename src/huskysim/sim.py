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
class Terrain:
    kind: str = "flat"  # "flat" or "beam"
    width: float = 0.0  # m, beam only
    height: float = 0.0  # m, beam top above the ground plane
    centerline: float = 0.0  # m, world y

    @classmethod
    def from_dict(cls, d: dict) -> "Terrain":
        kind = d.get("kind", "flat")
        if kind == "flat":
            return cls(kind="flat")
        if kind == "beam":
            return cls(
                kind="beam",
                width=float(d["width_m"]),
                height=float(d["height_m"]),
                centerline=float(d.get("centerline_y_m", 0.0)),
            )
        raise ValueError(f"unknown terrain kind {kind!r}")

    def support_height(self) -> float:
        return self.height if self.kind == "beam" else 0.0

    def on_top_face(self, xy) -> bool:
        if self.kind != "beam":
            return True
        return abs(xy[1] - self.centerline) <= self.width / 2.0


@dataclass
class Disturbance:
    t_start: float
    t_end: float
    force: np.ndarray  # N, world, applied at the COM

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass
class Scenario:
    name: str = "scenario"
    duration: float = 5.0  # s
    sim_dt: float = 1e-3  # s
    seed: int = 0
    terrain: Terrain = field(default_factory=Terrain)
    disturbances: list = field(default_factory=list)
    command: Command = field(default_factory=Command)
    mu_real: float = None  # plant-side friction limit; defaults to the MPC mu

    def validate(self):
        if not 0 <= self.duration < np.inf:
            raise ValueError(f"duration_s must be finite and non-negative, got {self.duration}")
        if not 0 < self.sim_dt < np.inf:
            raise ValueError(f"sim_dt_s must be finite and positive, got {self.sim_dt}")
        for dist in self.disturbances:
            if not -np.inf < dist.t_start < dist.t_end < np.inf:
                raise ValueError("disturbance must have finite t_start < t_end")
            if dist.force.shape != (3,) or not np.isfinite(dist.force).all():
                raise ValueError(f"force_n must be 3 finite values, got {dist.force.tolist()}")
        self.command.validate()
        if self.terrain.kind == "beam" and self.terrain.width <= 0:
            raise ValueError("beam width must be positive")
        return self


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
    """Tangential-to-normal force ratio per leg; zero for unloaded legs."""
    ratios = np.zeros(4)
    for i in range(4):
        if stance[i] and u.grf[i, 2] > 1e-9:
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
    theta = state.theta + euler_rates(state.theta, omega, exact=True) * dt
    return RobotState(theta=theta, p=p, omega=omega, pdot=pdot)


def horizon_models(state, d, r, touchdown, stance_now, stance_seq, params, dt) -> list[LinearModel]:
    """One tick's per-step discrete models, from a single model build.

    A leg in the air now that is in stance at step k has its planned touchdown
    (world frame) as lever arm there; every other column is the same at every step.
    """
    landing = np.asarray(stance_seq) & ~np.asarray(stance_now)
    d_seq = np.where(landing[:, :, None], touchdown - state.p, d)
    horizon = discretize(*build_continuous_model(state, d_seq, r, params), dt)
    return [LinearModel(horizon.A_k, B_k) for B_k in horizon.B_k]


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
            nominal = com0 + params.hip_offsets[i]
            nominal[2] = support
            self.foot_pos[i] = clamp_lateral(nominal, gait_cfg, body_y=com0[1])
        self.liftoff = self.foot_pos.copy()
        self.target = self.foot_pos.copy()
        self.curves: list[SwingCurve] = [
            build_swing_curve(self.foot_pos[i], self.foot_pos[i], gait_cfg.apex_height)
            for i in range(4)
        ]
        self.q = np.zeros((4, 3))
        self.q[:, 1] = 0.6
        self.q[:, 2] = -1.2  # knee bent backwards; the IK keeps the branch of the last angles
        self.initial_com = com0

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
                target = clamp_lateral(target, cfg, body_y=state.p[1])
                # keep the touchdown inside the leg workspace around the hip
                hip_height = hip_world[2] - support
                r_max = 0.95 * np.sqrt(max(reach**2 - hip_height**2, 4e-4))
                lateral = target[:2] - hip_world[:2]
                dist = np.linalg.norm(lateral)
                if dist > r_max:
                    target[:2] = hip_world[:2] + lateral * (r_max / dist)
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
    params.validate()
    mpc_cfg.validate()
    gait_cfg.validate()

    dt = scenario.sim_dt
    control_every = max(1, round(1.0 / (mpc_cfg.rate_hz * dt)))
    n_steps = round(scenario.duration / dt)
    support = scenario.terrain.support_height()
    command = scenario.command
    mu_real = scenario.mu_real if scenario.mu_real is not None else mpc_cfg.mu

    state = RobotState(p=np.array([0.0, 0.0, support + command.height]))
    tracker = _LegTracker(params, scenario, gait_cfg)
    controller = MpcController(mpc_cfg)
    log = SimLog()

    gait = trot_schedule(0.0, gait_cfg.t_stance, gait_cfg.t_swing)
    prev_stance = gait.stance_flags.copy()
    u = ControlInput()
    d = tracker.foot_pos - state.p
    r = np.zeros((4, 3))
    failure = None

    for i_step in range(n_steps):
        t = i_step * dt
        gait = trot_schedule(t, gait_cfg.t_stance, gait_cfg.t_swing)

        if i_step % control_every == 0:
            tracker.update_plan(state, prev_stance, gait.stance_flags, command)
            prev_stance = gait.stance_flags.copy()
            tracker.move_swing_feet(gait.phase, gait.stance_flags)
            d, r, _ = tracker.snapshot(state)

            ref = build_reference(state, command, mpc_cfg, support)
            stance_seq = [
                trot_schedule(t + k * mpc_cfg.dt, gait_cfg.t_stance, gait_cfg.t_swing).stance_flags
                for k in range(mpc_cfg.horizon)
            ]
            models = horizon_models(
                state, d, r, tracker.target, gait.stance_flags, stance_seq, params, mpc_cfg.dt
            )
            try:
                u = controller.step(state, stance_seq, models, ref)
            except SolverFailure as exc:
                failure = FailureEvent(SOLVER_FAILURE, t, str(exc))
                break
            violations = check_contact_legality(
                u, tracker.foot_pos, gait.stance_flags, scenario.terrain, mu_real
            )
            if violations:
                kind, _, detail = violations[0]
                failure = FailureEvent(kind, t, detail)
                break
        else:
            tracker.move_swing_feet(gait.phase, gait.stance_flags)

        ratios = friction_ratios(u, gait.stance_flags)
        log.append(t, state, u, tracker.foot_pos, gait.stance_flags, ratios)

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


def load_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed config document."""
    terrain = Terrain.from_dict(doc.get("terrain", {"kind": "flat"}))
    disturbances = [
        Disturbance(
            t_start=float(d["t_start_s"]),
            t_end=float(d["t_end_s"]),
            force=np.asarray(d["force_n"], dtype=float),
        )
        for d in doc.get("disturbances", [])
    ]
    return Scenario(
        name=doc.get("name", "scenario"),
        duration=float(doc.get("duration_s", 5.0)),
        sim_dt=float(doc.get("sim_dt_s", 1e-3)),
        seed=int(doc.get("seed", 0)),
        terrain=terrain,
        disturbances=disturbances,
        command=Command.from_dict(doc.get("command", {})),
        mu_real=float(doc["mu_real"]) if "mu_real" in doc else None,
    ).validate()
