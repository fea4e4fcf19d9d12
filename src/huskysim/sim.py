"""Nonlinear plant, contact legality checks, and the scenario run loop.

The plant integrates the centroidal accelerations (full-attitude thrust
rotation, exact Euler-angle rates) with semi-implicit Euler at the sim rate,
one control tick's plant steps per call.
Commanded ground forces are applied directly to the body; legality (friction
cone, beam footprint) is checked against the command and terminates the run
on violation. Each control tick samples the gait once and holds its input and
stance over its plant steps; swing feet track their Bezier curves kinematically
and stance feet stay pinned where they touched down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, isfinite, sin, sqrt

import numpy as np

from .config import Config, ConfigError, setting
from .dynamics import ControlInput, LinearModel, RobotState, build_continuous_model, discretize
from .gait import GaitConfig, build_swing_curve, clamp_lateral, eval_swing, raibert_target, trot_schedule
from .mpc import Command, MpcConfig, MpcController, SolverFailure, build_reference
from .robot import RobotParams, legs_inverse_kinematics
from .rotations import cross, rot_z, rpy_matrix

SLIP = "Slip"
BEAM_MISS = "BeamMiss"
ROLL_DIVERGENCE = "RollDivergence"
HEIGHT_COLLAPSE = "HeightCollapse"
SOLVER_FAILURE = "SolverFailure"
NUMERICAL_FAILURE = "NumericalFailure"

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
        return min(max(y, self.centerline - half), self.centerline + half)


@dataclass
class Disturbance(Config):
    t_start: float = setting("t_start_s")
    t_end: float = setting("t_end_s")
    force: np.ndarray = setting("force_n", shape=(3,))  # N, world, applied at the COM

    def rules(self):
        return (("t_end_s", self.t_start < self.t_end, "must be after t_start_s"),)


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
    """One row per sim step, in the first n rows of data; column order is fixed for the CSV artifact."""

    data: np.ndarray = field(default_factory=lambda: np.zeros((0, len(SimLog.HEADER))))
    n: int = 0

    HEADER = (
        ["t", "roll", "pitch", "yaw", "px", "py", "pz", "wx", "wy", "wz", "vx", "vy", "vz"]
        + [f"grf{i}{a}" for i in range(4) for a in "xyz"]
        + [f"thrust{i}" for i in range(4)]
        + [f"foot{i}{a}" for i in range(4) for a in "xyz"]
        + [f"stance{i}" for i in range(4)]
        + [f"ratio{i}" for i in range(4)]
    )

    def append(self, t, states, u: ControlInput, feet, stance, ratios):
        """One tick's block of rows: per plant step its time, state (12 values)
        and feet (4 x 3); the tick's input, stance flags and ratios on each row."""
        rows = self.data[self.n : self.n + len(t)]
        rows[:, 0] = t
        rows[:, 1:13] = states
        rows[:, 13:29] = u.as_vector()
        rows[:, 29:41] = np.reshape(feet, (-1, 12))
        rows[:, 41:45] = stance
        rows[:, 45:49] = ratios
        self.n += len(t)

    def as_array(self) -> np.ndarray:
        return self.data[: self.n]

    def to_csv(self, path):
        np.savetxt(path, self.as_array(), fmt="%.9g", delimiter=",", header=",".join(self.HEADER), comments="")

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
            data = np.loadtxt(f, delimiter=",", ndmin=2)
        return cls(data, len(data))


def _leg_forces(u: ControlInput):  # each leg's tangential and normal ground force, (4,) each
    return np.hypot(u.grf[:, 0], u.grf[:, 1]), u.grf[:, 2]


def friction_ratios(u: ControlInput, stance) -> np.ndarray:
    """Tangential-to-normal force ratio per leg; zero for a leg whose normal
    force is within the slip check's tolerance of zero."""
    tangential, fz = _leg_forces(u)
    loaded = np.asarray(stance) & (fz > SLIP_FORCE_TOL)
    return np.where(loaded, tangential / np.where(loaded, fz, 1.0), 0.0)


def check_contact_legality(u: ControlInput, foot_pos, stance, terrain: Terrain, mu_real: float):
    """Violations of the no-slip cone and the beam footprint for stance legs,
    leg by leg; a leg with tangential force and no normal load slips (ratio inf)."""
    tangential, fz = _leg_forces(u)
    violations = []
    for i in np.flatnonzero(stance).tolist():
        if tangential[i] > mu_real * fz[i] + SLIP_FORCE_TOL:
            ratio = tangential[i] / fz[i] if fz[i] > 0.0 else np.inf
            violations.append((SLIP, i, f"leg {i} friction ratio {ratio:.3g} > mu {mu_real}"))
        if not terrain.on_top_face(foot_pos[i][:2]):
            violations.append(
                (BEAM_MISS, i, f"leg {i} foot y {foot_pos[i][1]:.3g} off the beam top face")
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
) -> np.ndarray:
    """n plant steps that hold u and r: semi-implicit Euler on the accelerations
    of dynamics.centroidal_accel plus f_ext / m, velocities first, then the pose
    with the exact Euler-angle rates. One step is (4, 3) d and (3,) f_ext.

    d: (n, 4, 3) foot lever arms, each from the COM at the first step.
    f_ext: (n, 3) force at the COM per step (N, world).
    Returns the (n, 12) post-step states. The steps stop after the first
    non-finite state, and the rows past it are NaN.
    """
    d = np.reshape(d, (-1, 4, 3))
    n, m, g = len(d), params.mass, params.gravity
    # thrust i is R @ body[i], applied at r_i: the force is R @ sum_i body[i], the
    # torque sum_k lever_k x R[:, k] with lever_k = sum_i body[i, k] r_i
    body = params.thrust_dirs * u.thrust[:, None]
    tbx, tby, tbz = (body.sum(axis=0) / m).tolist()
    (l0x, l0y, l0z), (l1x, l1y, l1z), (l2x, l2y, l2z) = (body.T @ r).tolist()
    # a lever arm at step j is d[j] less the COM's move since the first step,
    # so the GRF torque is cross(d[j], grf) summed less (p_j - p_0) x F
    fx, fy, fz = u.grf.sum(axis=0).tolist()
    torque = cross(d, u.grf).sum(axis=1).tolist()
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = params.inertia_inv.tolist()
    ph, th, ps = state.theta.tolist()
    px, py, pz = p0x, p0y, p0z = state.p.tolist()
    wx, wy, wz = state.omega.tolist()
    vx, vy, vz = state.pdot.tolist()
    flat = []
    for (ex, ey, ez), (gx, gy, gz) in zip(np.reshape(f_ext, (-1, 3)).tolist(), torque):
        cf, sf, ct, st, cp, sp = cos(ph), sin(ph), cos(th), sin(th), cos(ps), sin(ps)
        # R = Rz(ps) Ry(th) Rx(ph), by columns
        r00, r10, r20 = cp * ct, sp * ct, -st
        r01, r11, r21 = cp * st * sf - sp * cf, sp * st * sf + cp * cf, ct * sf
        r02, r12, r22 = cp * st * cf + sp * sf, sp * st * cf - cp * sf, ct * cf
        ax = (fx + ex) / m + r00 * tbx + r01 * tby + r02 * tbz
        ay = (fy + ey) / m + r10 * tbx + r11 * tby + r12 * tbz
        az = (fz + ez) / m - g + r20 * tbx + r21 * tby + r22 * tbz
        dx, dy, dz = px - p0x, py - p0y, pz - p0z
        tx = gx - (dy * fz - dz * fy) + l0y * r20 - l0z * r10 + l1y * r21 - l1z * r11 + l2y * r22 - l2z * r12
        ty = gy - (dz * fx - dx * fz) + l0z * r00 - l0x * r20 + l1z * r01 - l1x * r21 + l2z * r02 - l2x * r22
        tz = gz - (dx * fy - dy * fx) + l0x * r10 - l0y * r00 + l1x * r11 - l1y * r01 + l2x * r12 - l2y * r02
        # omegadot = Rz I_b^-1 Rz' tau, the inverse of the yaw-rotated inertia
        bx, by = cp * tx + sp * ty, cp * ty - sp * tx
        cx, cy = i00 * bx + i01 * by + i02 * tz, i10 * bx + i11 * by + i12 * tz
        vx, vy, vz = vx + ax * dt, vy + ay * dt, vz + az * dt
        wx, wy = wx + (cp * cx - sp * cy) * dt, wy + (sp * cx + cp * cy) * dt
        wz += (i20 * bx + i21 * by + i22 * tz) * dt
        px, py, pz = px + vx * dt, py + vy * dt, pz + vz * dt
        roll_rate = (cp * wx + sp * wy) / ct
        ph, th, ps = ph + roll_rate * dt, th + (cp * wy - sp * wx) * dt, ps + (roll_rate * st + wz) * dt
        row = (ph, th, ps, px, py, pz, wx, wy, wz, vx, vy, vz)
        flat += row
        if not all(map(isfinite, row)):
            break  # cos and sin raise on an infinite angle
    out = np.full((n, 12), np.nan)
    out.ravel()[: len(flat)] = flat
    return out


def horizon_models(state, d, r, touchdown, stance_now, stance_seq, params, dt) -> LinearModel:
    """One tick's discrete model, from a single build: one A_k and a B_k per step.

    A leg in the air now that is in stance at step k has its planned touchdown
    (world frame) as lever arm there; every other column is the same at every step.
    """
    landing = np.asarray(stance_seq) & ~np.asarray(stance_now)
    d_seq = np.where(landing[:, :, None], touchdown - state.p, d)
    return discretize(*build_continuous_model(state, d_seq, r, params), dt)


def steps_per_tick(rate_hz: float, sim_dt: float) -> int:
    """Plant steps per control tick: 1 / (rate_hz * sim_dt), which must be a
    whole number >= 1 (to 1e-9 relative), else ConfigError."""
    ratio = 1.0 / max(rate_hz * sim_dt, 1e-300)  # finite; a tick of 1e300 steps outlasts any run
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * ratio:
        raise ConfigError(f"mpc.rate_hz: a tick must be a whole number of sim_dt_s steps, got {ratio:.6g}")
    return n


class _LegTracker:
    """Owns foot pinning, swing curves, and warm-started IK joint angles."""

    def __init__(self, params: RobotParams, scenario: Scenario, gait_cfg: GaitConfig):
        self.params = params
        self.scenario = scenario
        self.gait_cfg = gait_cfg
        support = scenario.terrain.support_height()
        com0 = np.array([0.0, 0.0, support + scenario.command.height])
        self.foot_pos = np.zeros((4, 3))  # where the last plant step left the feet
        for i in range(4):
            nominal = clamp_lateral(com0 + params.hip_offsets[i], gait_cfg, com0[1])
            nominal[1] = scenario.terrain.clamp_foot_y(nominal[1], gait_cfg.foot_margin)
            nominal[2] = support
            self.foot_pos[i] = nominal
        self.liftoff = self.foot_pos.copy()
        self.target = self.foot_pos.copy()
        self.q = np.zeros((4, 3))
        self.q[:, 1] = 0.6
        self.q[:, 2] = -1.2  # knee bent backwards; the IK keeps the branch of the last angles

    def update_plan(self, state: RobotState, prev_stance, stance, command: Command):
        """Lift-off points, touchdowns on the ground and swing legs' targets, in
        one pass over the legs; then every leg's swing curve."""
        cfg, terrain = self.gait_cfg, self.scenario.terrain
        support = terrain.support_height()
        hips = state.p + self.params.hip_offsets @ rot_z(state.theta[2]).T  # world frame
        p_ref = hips.copy()
        p_ref[:, 2] = 0.0
        targets = raibert_target(p_ref, state.pdot, command.v_d, cfg.t_stance, cfg.raibert_gain, support)
        targets = clamp_lateral(targets, cfg, state.p[1])
        reach_sq = self.params.leg_reach() ** 2
        legs = zip(prev_stance.tolist(), stance.tolist(), hips.tolist(), targets.tolist())
        for i, (was, now, (hx, hy, hz), (x, y, z)) in enumerate(legs):
            if was and not now:
                self.liftoff[i] = self.foot_pos[i]
            elif now and not was:
                self.foot_pos[i, 2] = support
            if now:
                continue
            # keep the touchdown inside the leg workspace around the hip,
            # then on a beam's top face, which wins when the two conflict
            r_max = 0.95 * sqrt(max(reach_sq - (hz - support) * (hz - support), 4e-4))
            lx, ly = x - hx, y - hy
            dist = sqrt(lx * lx + ly * ly)
            if dist > r_max:
                x, y = hx + lx * (r_max / dist), hy + ly * (r_max / dist)
            self.target[i] = (x, terrain.clamp_foot_y(y, cfg.foot_margin), z)
        self.curves = build_swing_curve(self.liftoff, self.target, cfg.apex_height)

    def tick_feet(self, phase, stance, n: int):
        """The feet at each of a tick's n plant steps, (n, 4, 3): a swing leg
        at phase min(phase + j dt / t_swing, 1) of its curve at step j, a
        stance leg where it is pinned. foot_pos becomes the last step's."""
        step_phase = np.arange(n)[:, None] * (self.scenario.sim_dt / self.gait_cfg.t_swing)
        swing, _ = eval_swing(self.curves, np.minimum(phase + step_phase, 1.0))
        feet = np.where(stance[:, None], self.foot_pos, swing)
        self.foot_pos = feet[-1]
        return feet

    def snapshot(self, state: RobotState, foot_pos):
        """COM-relative foot and thruster positions (world frame), and the (4,)
        mask of legs whose foot is out of reach; such a leg keeps its last angles."""
        R = rpy_matrix(state.theta)
        d = foot_pos - state.p
        self.q, stale, thrusters = legs_inverse_kinematics(self.params, d @ R, self.q)
        return d, thrusters @ R.T, stale


def run(scenario: Scenario, params: RobotParams, mpc_cfg: MpcConfig, gait_cfg: GaitConfig):
    """Execute a scenario; returns (SimLog, outcome) where outcome is None on success.
    Each config checked itself when built; steps_per_tick, the one rule across
    two configs, raises ConfigError."""
    dt = scenario.sim_dt
    per_tick = steps_per_tick(mpc_cfg.rate_hz, dt)
    n_steps = round(scenario.duration / dt)
    support = scenario.terrain.support_height()
    command = scenario.command

    state = RobotState(p=np.array([0.0, 0.0, support + command.height]))
    tracker = _LegTracker(params, scenario, gait_cfg)
    controller = MpcController(mpc_cfg)
    log = SimLog(np.zeros((n_steps, len(SimLog.HEADER))))

    ticks = range(0, n_steps, per_tick)  # each tick's first plant step
    # row k: the gait at tick k's horizon steps, of which column 0 is the tick's own
    horizon_t = (np.array(ticks) * dt)[:, None] + mpc_cfg.dt * np.arange(mpc_cfg.horizon)
    gait = trot_schedule(horizon_t, gait_cfg.t_stance, gait_cfg.t_swing)
    failure = None

    for k, first in enumerate(ticks):
        t = first * dt
        stance_seq, stance, phase = gait.stance_flags[k], gait.stance_flags[k, 0], gait.phase[k, 0]
        n = min(per_tick, n_steps - first)

        try:
            # a finite state far out of range can overflow the plan or swamp P; that ends the run
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                tracker.update_plan(state, gait.stance_flags[max(k - 1, 0), 0], stance, command)
                feet = tracker.tick_feet(phase, stance, n)
                d, r, _ = tracker.snapshot(state, feet[0])
                ref = build_reference(state, command, mpc_cfg, support)
                model = horizon_models(state, d, r, tracker.target, stance, stance_seq, params, mpc_cfg.dt)
                u = controller.step(state, stance_seq, model, ref)
        except SolverFailure as exc:
            failure = FailureEvent(SOLVER_FAILURE, t, str(exc))
            break
        except FloatingPointError as exc:
            failure = FailureEvent(NUMERICAL_FAILURE, t, f"control tick: {exc}")
            break
        violations = check_contact_legality(u, feet[0], stance, scenario.terrain, scenario.mu_real)
        if violations:
            kind, _, detail = violations[0]
            failure = FailureEvent(kind, t, detail)
            break
        ratios = friction_ratios(u, stance)

        ts = (first + np.arange(n)) * dt
        # a push can overflow to a non-finite state, which the first check names
        with np.errstate(over="ignore", invalid="ignore"):
            f_ext = np.zeros((n, 3))
            for dist in scenario.disturbances:
                f_ext += ((dist.t_start <= ts) & (ts < dist.t_end))[:, None] * dist.force
            post = step(state, u, feet - state.p, r, f_ext, params, dt)
            finite = np.isfinite(post).all(axis=1)
            tilted = np.abs(post[:, :2]).max(axis=1) > ROLL_LIMIT
            low = post[:, 5] - support < HEIGHT_FRACTION * command.height
        failing = np.flatnonzero(~finite | tilted | low)
        j = failing[0] if failing.size else n - 1
        if failing.size:
            (roll, pitch), t_fail = post[j, :2], float(ts[j] + dt)
            if not finite[j]:
                failure = FailureEvent(NUMERICAL_FAILURE, t_fail, "non-finite plant state")
            elif tilted[j]:
                failure = FailureEvent(ROLL_DIVERGENCE, t_fail, f"roll {roll:.3g} pitch {pitch:.3g} rad")
            else:
                failure = FailureEvent(HEIGHT_COLLAPSE, t_fail, f"COM height {post[j, 5] - support:.3g} m")
        # the pre-step rows through the failing step
        states = np.vstack([state.as_vector()[:12], post[:j]])
        log.append(ts[: j + 1], states, u, feet[: j + 1], stance, ratios)
        if failure is not None:
            break
        state = RobotState.from_vector(post[-1])

    return log, failure
