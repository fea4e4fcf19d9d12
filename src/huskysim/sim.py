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
from traceback import walk_tb

import numpy as np

from .config import Config, ConfigError, setting, sized_by
from .dynamics import GRF, P, THETA, THRUST, V, build_continuous_model, discretize
from .gait import GaitConfig, build_swing_curve, clamp_lateral, swing_weights, trot_schedule
from .mpc import Command, MpcConfig, MpcController, build_reference
from .qp import NotPositiveDefinite, QpError
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
# N; the QP leaves a pyramid row violated by at most ~2e-10 N: a leg this little outside the cone is not slipping
SLIP_FORCE_TOL = 1e-6
TICK_BLOCK = 100  # control ticks whose schedule, swing weights, step times and pushes run forms at a time


@dataclass
class Terrain(Config):
    width: float = setting("width_m", 0.0, ge=0)  # m, a beam when > 0, else flat ground
    height: float = setting("height_m", 0.0)  # m, the support's top above the ground plane
    centerline: float = setting("centerline_y_m", 0.0)  # m, world y

    def on_top_face(self, xy) -> bool:
        return not self.width or abs(xy[1] - self.centerline) <= self.width / 2.0

    def clamp_foot_y(self, y: float, margin: float) -> float:
        """A foot target's y, kept on a beam's top face ``margin`` clear of its edges."""
        if not self.width:
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
    name: str = setting("name", "scenario")  # the summary's label
    duration: float = setting("duration_s", 5.0, ge=0)  # s
    sim_dt: float = setting("sim_dt_s", 1e-3, gt=0)  # s
    terrain: Terrain = setting("terrain", Terrain)
    disturbances: list[Disturbance] = setting("disturbances", list)
    command: Command = setting("command", Command)
    mu_real: float = setting("mu_real", 0.5, gt=0)  # plant-side friction limit


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

    def append(self, t, states, u: np.ndarray, feet, stance, ratios):
        """One tick's block of rows: per plant step its time, state (12 values)
        and feet (4 x 3); the tick's input (16 values), stance flags and ratios on each row."""
        rows = self.data[self.n : self.n + len(t)]
        rows[:, 0] = t
        rows[:, 1:13] = states
        rows[:, 13:29] = u
        rows[:, 29:41] = np.asarray(feet).reshape(-1, 12)
        rows[:, 41:45] = stance
        rows[:, 45:49] = ratios
        self.n += len(t)

    def as_array(self) -> np.ndarray:
        return self.data[: self.n]

    def to_csv(self, path) -> np.ndarray:
        """Write the rows under HEADER, each value as %.9g, 1000 rows at a time,
        and round the log in place to the values as written: afterwards
        as_array(), which it returns, equals from_csv(path).as_array() byte for
        byte, and no second copy of the rows is made.

        A block of rows starts where the input, the stance flags, the ratios or
        a stance leg's foot differs in its bits from the row before, as at each
        tick that append wrote; those values are formatted once for the block."""
        data = self.as_array()
        layouts = {}  # stance flags -> _held_columns
        with open(path, "w") as f:
            f.write(",".join(self.HEADER) + "\n")
            for rows in (data[i : i + 1000] for i in range(0, self.n, 1000)):
                stance = rows[:, 41:45] != 0
                key = rows[:, 13:49].view(np.int64).copy()  # the bits of the held columns, -0.0 apart from 0.0
                key[:, 16:28] *= np.repeat(stance, 3, axis=1)  # less a swing leg's foot
                starts = [0, *(np.flatnonzero((key[1:] != key[:-1]).any(axis=1)) + 1).tolist(), len(rows)]
                for start, stop in zip(starts, starts[1:]):
                    flags = tuple(stance[start].tolist())
                    if flags not in layouts:
                        layouts[flags] = _held_columns(flags)
                    held, moving, skeleton = layouts[flags]
                    block = rows[start:stop]
                    held_text = ("%.9g," * len(held)) % tuple(block[0, held].tolist())
                    moving_text = ("%.9g," * (len(moving) * len(block))) % tuple(block[:, moving].ravel().tolist())
                    template = skeleton % tuple(held_text.split(",")[:-1])
                    f.write((template * len(block)) % tuple(moving_text.split(",")[:-1]))
                    block[:, held] = np.fromstring(held_text[:-1], sep=",")
                    block[:, moving] = np.fromstring(moving_text[:-1], sep=",").reshape(len(block), -1)
        return data

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


def _held_columns(stance: tuple):
    """For a block of stance flags stance: the columns held over it, the columns
    that move, and its row as a %-template with %s for each held value and %%s
    for each moving one."""
    held = np.zeros(len(SimLog.HEADER), dtype=bool)
    held[13:29] = held[41:49] = True  # the input, the stance flags and the ratios
    held[29:41] = np.repeat(stance, 3)  # the pinned feet of the stance legs
    skeleton = ",".join("%s" if h else "%%s" for h in held.tolist()) + "\n"
    return np.flatnonzero(held), np.flatnonzero(~held), skeleton


def _leg_forces(u: np.ndarray):  # each leg's tangential and normal ground force, as lists of 4 floats
    return np.hypot(u[GRF][0::3], u[GRF][1::3]).tolist(), u[GRF][2::3].tolist()


def friction_ratios(u: np.ndarray, stance) -> np.ndarray:
    """Tangential-to-normal force ratio per leg; zero for a leg whose normal
    force is within the slip check's tolerance of zero."""
    tangential, fz = _leg_forces(u)
    legs = zip(tangential, fz, np.asarray(stance).tolist())
    return np.array([f_t / f_z if s and f_z > SLIP_FORCE_TOL else 0.0 for f_t, f_z, s in legs])


def check_contact_legality(u: np.ndarray, foot_pos, stance, terrain: Terrain, mu_real: float):
    """The violation that ends the run, (kind, leg, detail), or None: the first stance leg,
    in leg order, out of the no-slip cone (SLIP) or off the beam's top face (BEAM_MISS),
    a slip before a miss; a leg with tangential force and no normal load slips (ratio inf)."""
    tangential, fz = _leg_forces(u)
    legs = zip(tangential, fz, np.asarray(stance).tolist(), np.asarray(foot_pos).tolist())
    for i, (f_t, f_z, s, foot) in enumerate(legs):
        if s and f_t > mu_real * f_z + SLIP_FORCE_TOL:
            ratio = f_t / f_z if f_z > 0.0 else np.inf
            return SLIP, i, f"leg {i} friction ratio {ratio:.3g} > mu {mu_real}"
        if s and not terrain.on_top_face(foot[:2]):
            return BEAM_MISS, i, f"leg {i} foot y {foot[1]:.3g} off the beam top face"
    return None


def step(
    state: np.ndarray,
    u: np.ndarray,
    d: np.ndarray,
    r: np.ndarray,
    f_ext: np.ndarray,
    params: RobotParams,
    dt: float,
    support: float,
    min_height: float,
):
    """Up to n plant steps from the 12-vector state that hold the 16-vector input u and r: semi-implicit
    Euler, velocities first, then the pose with the exact Euler-angle rates, on pddot = (sum_i (grf_i +
    R e_i u_t,i) + f_ext) / m - g z and omegadot = Rz I_b^-1 Rz' sum_i (d_i x grf_i + r_i x R e_i u_t,i),
    thrust_dirs e_i rotated by the full attitude R. One step is (4, 3) d and (3,) f_ext.

    d: (n, 4, 3) foot lever arms, each from the COM at the first step.
    f_ext: (n, 3) force at the COM per step (N, world).
    Returns the (m + 1, 12) states passed through (state's own, then one per step
    taken) and None, or the kind of the first post-step state that ends the run, at
    which the steps stop. Its tests, in order: non-finite (NUMERICAL_FAILURE), |roll| or
    |pitch| above ROLL_LIMIT (ROLL_DIVERGENCE), pz - support below min_height (HEIGHT_COLLAPSE).
    """
    d = np.asarray(d).reshape(-1, 4, 3)
    m, g = params.mass, params.gravity
    # thrust i is R @ body[i], applied at r_i: the force is R @ sum_i body[i], the
    # torque sum_k lever_k x R[:, k] with lever_k = sum_i body[i, k] r_i
    body = params.thrust_dirs * u[THRUST, None]
    tbx, tby, tbz = (body.sum(axis=0) / m).tolist()
    (l0x, l0y, l0z), (l1x, l1y, l1z), (l2x, l2y, l2z) = (body.T @ r).tolist()
    # a lever arm at step j is d[j] less the COM's move since the first step,
    # so the GRF torque is cross(d[j], grf) summed less (p_j - p_0) x F
    grf = u[GRF].reshape(4, 3)
    fx, fy, fz = grf.sum(axis=0).tolist()
    torque = cross(d, grf).sum(axis=1).tolist()
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = params.inertia_inv.tolist()
    ph, th, ps, px, py, pz, wx, wy, wz, vx, vy, vz = flat = state.tolist()
    (p0x, p0y, p0z), kind = flat[3:6], None  # flat: the states passed through, row by row
    for (ex, ey, ez), (gx, gy, gz) in zip(np.asarray(f_ext).reshape(-1, 3).tolist(), torque):
        cf, sf, ct, st, cp, sp = cos(ph), sin(ph), cos(th), sin(th), cos(ps), sin(ps)
        # R = Rz(ps) Ry(th) Rx(ph), by columns
        r00, r10, r20 = cp * ct, sp * ct, -st
        cpst, spst = cp * st, sp * st
        r01, r11, r21 = cpst * sf - sp * cf, spst * sf + cp * cf, ct * sf
        r02, r12, r22 = cpst * cf + sp * sf, spst * cf - cp * sf, ct * cf
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
        # a sum of finite values is finite unless it overflows: then each value is looked at
        if not isfinite(ph + th + ps + px + py + pz + wx + wy + wz + vx + vy + vz) and not all(map(isfinite, row)):
            kind = NUMERICAL_FAILURE  # and the next step's cos and sin would raise on an infinite angle
        elif abs(ph) > ROLL_LIMIT or abs(th) > ROLL_LIMIT:
            kind = ROLL_DIVERGENCE
        elif pz - support < min_height:
            kind = HEIGHT_COLLAPSE
        if kind is not None:
            break
    return np.array(flat).reshape(-1, 12), kind


def horizon_models(state, d, r, touchdown, stance_seq, params, dt) -> tuple[np.ndarray, np.ndarray]:
    """One tick's discrete model, from a single build: the pair (A_k, B_k), one A_k and a B_k per step.

    A leg in the air now (step 0) that is in stance at step k has its planned touchdown
    (world frame) as lever arm there; every other column is the same at every step.
    """
    landing = np.greater(stance_seq, stance_seq[0])  # in stance at step k, not now
    d_seq = np.where(landing[:, :, None], touchdown - state[P], d)
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
        support = scenario.terrain.height
        com0 = np.array([0.0, 0.0, support + scenario.command.height])
        self.foot_pos = np.zeros((4, 3))  # where the last plant step left the feet
        for foot, hip in zip(self.foot_pos, params.hip_offsets):
            x, y, _ = clamp_lateral(com0 + hip, gait_cfg, com0[1])
            foot[:] = x, scenario.terrain.clamp_foot_y(y, gait_cfg.foot_margin), support
        self.liftoff = self.foot_pos.copy()
        self.target = self.foot_pos.copy()
        self.q = np.tile([0.0, 0.6, -1.2], (4, 1))  # knee bent backwards; the IK keeps the branch of the last angles

    def update_plan(self, state: np.ndarray, prev_stance, stance):
        """Lift-off points, touchdowns on the ground and swing legs' targets, in
        one pass over the legs in floats; then every leg's swing curve."""
        cfg, terrain = self.gait_cfg, self.scenario.terrain
        support = terrain.height
        hips = (state[P] + self.params.hip_offsets @ rot_z(state[THETA][2]).T).tolist()  # world frame
        # raibert_target of the point on the ground below each hip, then clamp_lateral
        (vx, vy, _), (vdx, vdy, _) = state[V].tolist(), self.scenario.command.v_d.tolist()
        half, gain, body_y = cfg.t_stance / 2.0, cfg.raibert_gain, float(state[P][1])
        step_x, step_y = vx * half, vy * half
        push_x, push_y = gain * (vx - vdx), gain * (vy - vdy)
        lateral = cfg.stance_width / 2.0
        reach_sq = self.params.leg_reach() ** 2
        for i, (was, now, (hx, hy, hz)) in enumerate(zip(prev_stance.tolist(), stance.tolist(), hips)):
            if was and not now:
                self.liftoff[i] = self.foot_pos[i]
            elif now and not was:
                self.foot_pos[i, 2] = support
            if now:
                continue
            x, y = hx + step_x + push_x, hy + step_y + push_y
            if lateral > 0.0:
                y = min(max(y, body_y - lateral), body_y + lateral)
            # keep the touchdown inside the leg workspace around the hip,
            # then on a beam's top face, which wins when the two conflict
            r_max = 0.95 * sqrt(max(reach_sq - (hz - support) * (hz - support), 4e-4))
            lx, ly = x - hx, y - hy
            dist = sqrt(lx * lx + ly * ly)
            if dist > r_max:
                x, y = hx + lx * (r_max / dist), hy + ly * (r_max / dist)
            self.target[i] = (x, terrain.clamp_foot_y(y, cfg.foot_margin), support)
        self.curves = build_swing_curve(self.liftoff, self.target, cfg.apex_height)

    def tick_feet(self, weights, stance, n: int):
        """The feet at each of a tick's n plant steps, (n, 4, 3): a swing leg
        where the tick's (4, m >= n, 5) swing_weights put it on its curve, a
        stance leg where it is pinned. foot_pos becomes the last step's."""
        swing = (weights @ self.curves).swapaxes(0, 1)[:n]
        feet = np.where(stance[:, None], self.foot_pos, swing)
        self.foot_pos = feet[-1]
        return feet

    def snapshot(self, state: np.ndarray, foot_pos):
        """COM-relative foot and thruster positions (world frame), and the (4,)
        mask of legs whose foot is out of reach; such a leg keeps its last angles."""
        R = rpy_matrix(state[THETA])
        d = foot_pos - state[P]
        self.q, stale, thrusters = legs_inverse_kinematics(self.params, d @ R, self.q)
        return d, thrusters @ R.T, stale


def run(scenario: Scenario, params: RobotParams, mpc_cfg: MpcConfig, gait_cfg: GaitConfig):
    """Execute a scenario; returns (SimLog, outcome), the outcome None on success, else
    the FailureEvent that ended the run. Each config checked itself when built; steps_per_tick,
    the one rule across two configs, raises ConfigError, as does a controller or log too large to allocate."""
    dt = scenario.sim_dt
    per_tick = steps_per_tick(mpc_cfg.rate_hz, dt)
    n_steps = round(scenario.duration / dt)
    command = scenario.command
    support, min_height = scenario.terrain.height, HEIGHT_FRACTION * command.height

    state = np.zeros(12)  # the plant's state, in dynamics' parts
    state[P] = 0.0, 0.0, support + command.height
    tracker = _LegTracker(params, scenario, gait_cfg)
    with sized_by("mpc.horizon"):
        controller = MpcController(mpc_cfg, scenario.mu_real)
    with sized_by("duration_s"):
        log = SimLog(np.zeros((n_steps, len(SimLog.HEADER))))

    ticks = range(0, n_steps, per_tick)  # each tick's first plant step
    step_phase = np.arange(per_tick) * (dt / gait_cfg.t_swing)
    lead = mpc_cfg.dt * np.arange(mpc_cfg.horizon)  # a tick's horizon steps' times after its own

    for k, first in enumerate(ticks):
        t, i = first * dt, k % TICK_BLOCK
        # the tables of the TICK_BLOCK ticks from tick k, formed outside the timed tick so that
        # none grows with the run: row r of stances and phases holds the block's tick r's gait at its horizon
        # steps (column 0 its own), row r of swing the weights of its swing phases
        # min(phase + j dt / t_swing, 1) at step j as (4, per_tick) rows; ts and f_ext hold
        # each of the block's plant steps' time and push
        if i == 0:
            horizon_t = (np.array(ticks[k : k + TICK_BLOCK]) * dt)[:, None] + lead
            stances, phases = trot_schedule(horizon_t, gait_cfg.t_stance, gait_cfg.t_swing)
            swing = swing_weights(np.minimum(phases[:, 0, :, None] + step_phase, 1.0))
            ts = np.arange(first, min(first + TICK_BLOCK * per_tick, n_steps)) * dt
            # a push can overflow to a non-finite state, which the plant's first check names
            with np.errstate(over="ignore", invalid="ignore"):
                f_ext = np.zeros((len(ts), 3))
                for dist in scenario.disturbances:
                    f_ext += ((dist.t_start <= ts) & (ts < dist.t_end))[:, None] * dist.force
        stance_seq, n = stances[i], min(per_tick, n_steps - first)
        o = i * per_tick  # the tick's first plant step in ts and f_ext
        # the last tick's stance and this tick's; the first tick takes its own as the last
        prev_stance, stance = stance_seq[0] if k == 0 else stance, stance_seq[0]

        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                tracker.update_plan(state, prev_stance, stance)
                feet = tracker.tick_feet(swing[i], stance, n)
                d, r, _ = tracker.snapshot(state, feet[0])
                ref = build_reference(state, command, mpc_cfg, support)
                model = horizon_models(state, d, r, tracker.target, stance_seq, params, mpc_cfg.dt)
                u = controller.step(state, stance_seq, model, ref)
        except (ArithmeticError, QpError) as exc:  # numpy's FloatingPointError, a float's OverflowError, or the QP's
            # P is positive definite by construction: one that fails to factor was swamped by a state far out of range
            kind = NUMERICAL_FAILURE if isinstance(exc, (ArithmeticError, NotPositiveDefinite)) else SOLVER_FAILURE
            # the stage is the call above that raised, found under any wrapper from outside the package
            stage = next(f.f_code.co_qualname for f, _ in walk_tb(exc.__traceback__.tb_next)
                         if f.f_globals.get("__package__") == __package__)
            return log, FailureEvent(kind, t, f"control tick: {stage}: {type(exc).__name__}: {exc.args[-1]}")
        violation = check_contact_legality(u, feet[0], stance, scenario.terrain, scenario.mu_real)
        if violation is not None:
            return log, FailureEvent(violation[0], t, violation[2])
        ratios = friction_ratios(u, stance)

        with np.errstate(over="ignore", invalid="ignore"):
            states, kind = step(state, u, feet - state[P], r, f_ext[o : o + n], params, dt, support, min_height)
        m = len(states) - 1  # the plant steps taken; the last state starts the next tick or ends the run
        log.append(ts[o : o + m], states[:-1], u, feet[:m], stance, ratios)
        if kind is not None:
            roll, pitch, _, _, _, pz = states[-1, :6].tolist()
            detail = {NUMERICAL_FAILURE: "non-finite plant state", HEIGHT_COLLAPSE: f"COM height {pz - support:.3g} m",
                      ROLL_DIVERGENCE: f"roll {roll:.3g} pitch {pitch:.3g} rad"}[kind]
            return log, FailureEvent(kind, float(ts[o + m - 1] + dt), detail)
        state = states[-1]

    return log, None
