"""Trot scheduling, the lateral stance clamp, and quartic Bezier swing curves."""

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
    t_swing: float = setting("t_swing_s", 0.15, gt=0)  # s
    raibert_gain: float = setting("raibert_gain_s", 0.03)  # s, feedback on velocity error
    apex_height: float = setting("apex_height_m", 0.05, ge=0)  # m
    # body-relative narrow-stance clamp: total lateral stance width;
    # 0 leaves the natural hip-width stance
    stance_width: float = setting("stance_width_m", 0.0, ge=0)  # m
    foot_margin: float = setting("foot_margin_m", 0.01, ge=0)  # m, kept clear of a beam's edge


# legs of pair A: in stance for the first t_stance of each period
_IN_PAIR_A = np.isin(np.arange(4), PAIR_A)


def trot_schedule(t, T_s: float, T_sw: float) -> tuple[np.ndarray, np.ndarray]:
    """Alternating diagonal-pair trot at a time or an array of times: the pair (stance, phase),
    each t.shape + (4,), of the legs' stance flags (bool) and phases in [0, 1], the time within
    the current mode. Pair (FL, RR) starts in stance at t = 0, pair (FR, RL) in swing."""
    tau = np.asarray(t, dtype=float)[..., None] % (T_s + T_sw)
    first = np.where(_IN_PAIR_A, T_s, T_sw)  # duration of each leg's first mode
    early = tau < first
    phase = np.where(early, tau / first, (tau - first) / np.where(_IN_PAIR_A, T_sw, T_s))
    return early == _IN_PAIR_A, phase


def clamp_lateral(target: np.ndarray, cfg: GaitConfig, body_y: float) -> np.ndarray:
    """The target, or stacked (..., 3) targets, with y within the narrow stance around the body's y."""
    out = target.copy()
    if cfg.stance_width > 0.0:
        half = cfg.stance_width / 2.0
        out[..., 1] = np.clip(out[..., 1], body_y - half, body_y + half)
    return out


def build_swing_curve(liftoff: np.ndarray, target: np.ndarray, apex_height: float) -> np.ndarray:
    """The (..., 5, 3) control points of the curves from lift-off to target
    points of shape (..., 3): quartic Beziers with doubled endpoints, P0 = P1
    (lift-off) and P3 = P4 (target)."""
    liftoff = np.asarray(liftoff, dtype=float)
    target = np.asarray(target, dtype=float)
    apex = 0.5 * (liftoff + target)
    apex[..., 2] = np.maximum(liftoff[..., 2], target[..., 2]) + apex_height
    lift, apex, target = liftoff[..., None, :], apex[..., None, :], target[..., None, :]
    return np.concatenate([lift, lift, apex, target, target], axis=-2)  # np.stack, less its overhead


# s^0..s^4 (rows) -> the quartic Bernstein weights (columns 0-4) and their derivatives (5-9)
_BERNSTEIN = np.array([[1, 0, 0, 0, 0, -4, 4, 0, 0, 0], [-4, 4, 0, 0, 0, 12, -24, 12, 0, 0],
                       [6, -12, 6, 0, 0, -12, 36, -36, 12, 0], [-4, 12, -12, 4, 0, 4, -16, 24, -16, 4],
                       [1, -4, 6, -4, 1, 0, 0, 0, 0, 0]], dtype=float)
_POWERS = np.arange(5)


def _checked_phase(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if not ((s >= 0.0) & (s <= 1.0)).all():
        raise PhaseOutOfRange(f"phase {s} outside [0, 1]")
    return s


def eval_swing(control_points: np.ndarray, s):
    """Position and d(position)/d(phase) at phases s in [0, 1] of the curves
    whose (..., 5, 3) control points build_swing_curve returns.

    s is a phase or an array of phases that broadcasts against the curves'
    leading shape; each output has the broadcast shape plus (3,). Both come
    from one matmul of Bernstein weights with the control points; duplicated
    endpoints make the derivative exactly zero at s = 0 and s = 1.
    """
    s = _checked_phase(s)
    # a (1, 5) @ (5, 10) product per phase: a phase gets the same weights alone or in a batch
    weights = s[..., None, None] ** _POWERS @ _BERNSTEIN
    out = weights.reshape(s.shape + (2, 5)) @ control_points
    return out[..., 0, :], out[..., 1, :]


def swing_weights(s) -> np.ndarray:
    """The Bernstein weights of the positions at phases s in [0, 1], s.shape +
    (5,), which are eval_swing's. Stacked as (4, m, 5), m phases of each of four
    curves, their product with the curves' (4, 5, 3) control points is, bit for
    bit, the positions that eval_swing gives."""
    s = _checked_phase(s)
    return (s[..., None, None] ** _POWERS @ _BERNSTEIN[:, :5]).reshape(s.shape + (5,))
