"""Trot scheduling, Raibert foot placement, and quartic Bezier swing curves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# diagonal pairs: A = (FL, RR), B = (FR, RL)
PAIR_A = (0, 3)
PAIR_B = (1, 2)


class PhaseOutOfRange(Exception):
    pass


@dataclass
class GaitConfig:
    t_stance: float = 0.3  # s
    t_swing: float = 0.3  # s
    raibert_gain: float = 0.03  # s, feedback on velocity error
    apex_height: float = 0.05  # m
    # world-fixed strip clamp (a physical beam); width <= 0 disables it
    clamp_width: float = 0.0  # m
    clamp_centerline: float = 0.0  # m, world y
    foot_margin: float = 0.01  # m, kept clear of the strip edge
    # body-relative narrow-stance clamp: total lateral stance width;
    # <= 0 leaves the natural hip-width stance
    stance_width: float = 0.0  # m

    def validate(self):
        for key, value in (("t_stance_s", self.t_stance), ("t_swing_s", self.t_swing)):
            if not 0 < value < np.inf:
                raise ValueError(f"{key} must be finite and positive, got {value}")
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "GaitConfig":
        cfg = cls()
        cfg.t_stance = float(d.get("t_stance_s", cfg.t_stance))
        cfg.t_swing = float(d.get("t_swing_s", cfg.t_swing))
        cfg.raibert_gain = float(d.get("raibert_gain_s", cfg.raibert_gain))
        cfg.apex_height = float(d.get("apex_height_m", cfg.apex_height))
        cfg.stance_width = float(d.get("stance_width_m", cfg.stance_width))
        clamp = d.get("lateral_clamp")
        if clamp and clamp.get("enabled", True):
            cfg.clamp_width = float(clamp["width_m"])
            cfg.clamp_centerline = float(clamp.get("centerline_y_m", 0.0))
            cfg.foot_margin = float(clamp.get("foot_margin_m", cfg.foot_margin))
        return cfg.validate()


@dataclass
class GaitState:
    stance_flags: np.ndarray  # (4,) bool
    phase: np.ndarray  # (4,) in [0, 1], time within the current mode
    T_s: float
    T_sw: float
    liftoff_pos: np.ndarray = field(default_factory=lambda: np.zeros((4, 3)))
    target_pos: np.ndarray = field(default_factory=lambda: np.zeros((4, 3)))


def trot_schedule(t: float, T_s: float, T_sw: float, offset: float = 0.0) -> GaitState:
    """Alternating diagonal-pair trot. Pair (FL, RR) starts in stance at t = 0."""
    period = T_s + T_sw
    tau = (t + offset) % period

    stance = np.zeros(4, dtype=bool)
    phase = np.zeros(4)
    if tau < T_s:
        a_stance, a_phase = True, tau / T_s
    else:
        a_stance, a_phase = False, (tau - T_s) / T_sw
    if tau < T_sw:
        b_stance, b_phase = False, tau / T_sw
    else:
        b_stance, b_phase = True, (tau - T_sw) / T_s

    for leg in PAIR_A:
        stance[leg], phase[leg] = a_stance, a_phase
    for leg in PAIR_B:
        stance[leg], phase[leg] = b_stance, b_phase
    return GaitState(stance_flags=stance, phase=phase, T_s=T_s, T_sw=T_sw)


def raibert_target(
    p_ref: np.ndarray,
    v: np.ndarray,
    v_d: np.ndarray,
    T_s: float,
    k: float,
    terrain_z: float = 0.0,
) -> np.ndarray:
    """Touchdown target: p_ref + v T_s / 2 + k (v - v_d), snapped to the terrain."""
    target = np.asarray(p_ref, dtype=float) + np.asarray(v) * (T_s / 2.0) + k * (
        np.asarray(v) - np.asarray(v_d)
    )
    target[2] = terrain_z
    return target


def clamp_lateral(target: np.ndarray, cfg: GaitConfig, body_y: float = None) -> np.ndarray:
    """Clamp the target's y, body-relative (narrow stance) then world (beam)."""
    out = target.copy()
    if cfg.stance_width > 0.0 and body_y is not None:
        half = cfg.stance_width / 2.0
        out[1] = np.clip(out[1], body_y - half, body_y + half)
    if cfg.clamp_width > 0.0:
        half = max(cfg.clamp_width / 2.0 - cfg.foot_margin, 0.0)
        out[1] = np.clip(out[1], cfg.clamp_centerline - half, cfg.clamp_centerline + half)
    return out


@dataclass
class SwingCurve:
    """Quartic Bezier with doubled endpoints: P0 = P1 (lift-off), P3 = P4 (target)."""

    control_points: np.ndarray  # (5, 3)


def build_swing_curve(liftoff: np.ndarray, target: np.ndarray, apex_height: float) -> SwingCurve:
    liftoff = np.asarray(liftoff, dtype=float)
    target = np.asarray(target, dtype=float)
    apex = 0.5 * (liftoff + target)
    apex[2] = max(liftoff[2], target[2]) + apex_height
    return SwingCurve(control_points=np.array([liftoff, liftoff, apex, target, target]))


_BINOM4 = np.array([1.0, 4.0, 6.0, 4.0, 1.0])
_BINOM3 = np.array([1.0, 3.0, 3.0, 1.0])


def eval_swing(curve: SwingCurve, s: float):
    """Position and d(position)/d(phase) at phase s in [0, 1].

    The derivative comes from the degree-3 hodograph; duplicated endpoints
    make it exactly zero at s = 0 and s = 1.
    """
    if not 0.0 <= s <= 1.0:
        raise PhaseOutOfRange(f"phase {s} outside [0, 1]")
    cp = curve.control_points
    si = s ** np.arange(5)
    oi = (1.0 - s) ** np.arange(4, -1, -1)
    pos = (_BINOM4 * si * oi) @ cp

    dcp = 4.0 * (cp[1:] - cp[:-1])
    si3 = s ** np.arange(4)
    oi3 = (1.0 - s) ** np.arange(3, -1, -1)
    vel = (_BINOM3 * si3 * oi3) @ dcp
    return pos, vel
