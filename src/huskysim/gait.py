"""Trot scheduling, Raibert foot placement, and quartic Bezier swing curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, setting

# diagonal pairs: A = (FL, RR), B = (FR, RL)
PAIR_A = (0, 3)
PAIR_B = (1, 2)


class PhaseOutOfRange(Exception):
    pass


@dataclass
class GaitConfig(Config):
    t_stance: float = setting("t_stance_s", 0.3, gt=0)  # s
    t_swing: float = setting("t_swing_s", 0.3, gt=0)  # s
    raibert_gain: float = setting("raibert_gain_s", 0.03)  # s, feedback on velocity error
    apex_height: float = setting("apex_height_m", 0.05, ge=0)  # m
    # body-relative narrow-stance clamp: total lateral stance width;
    # <= 0 leaves the natural hip-width stance
    stance_width: float = setting("stance_width_m", 0.0)  # m
    foot_margin: float = setting("foot_margin_m", 0.01, ge=0)  # m, kept clear of a beam's edge


@dataclass
class GaitState:
    stance_flags: np.ndarray  # (4,) bool
    phase: np.ndarray  # (4,) in [0, 1], time within the current mode


def trot_schedule(t: float, T_s: float, T_sw: float) -> GaitState:
    """Alternating diagonal-pair trot. Pair (FL, RR) starts in stance at t = 0."""
    period = T_s + T_sw
    tau = t % period

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
    return GaitState(stance_flags=stance, phase=phase)


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


def clamp_lateral(target: np.ndarray, cfg: GaitConfig, body_y: float) -> np.ndarray:
    """The target with its y within the narrow stance around the body's y."""
    out = target.copy()
    if cfg.stance_width > 0.0:
        half = cfg.stance_width / 2.0
        out[1] = np.clip(out[1], body_y - half, body_y + half)
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
