"""Elementary rotation matrices and the skew operator (ZYX Euler convention)."""

import math

import numpy as np


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rpy_matrix(theta: np.ndarray) -> np.ndarray:
    """Body-to-world rotation for Euler angles (roll, pitch, yaw), R = Rz Ry Rx."""
    return rot_z(theta[2]) @ rot_y(theta[1]) @ rot_x(theta[0])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of v, one per row of a stacked (..., 3) v: skew(v) @ w = v x w."""
    v = np.asarray(v, dtype=float)
    m = np.zeros(v.shape + (3,))
    m[..., 0, 1], m[..., 0, 2] = -v[..., 2], v[..., 1]
    m[..., 1, 0], m[..., 1, 2] = v[..., 2], -v[..., 0]
    m[..., 2, 0], m[..., 2, 1] = -v[..., 1], v[..., 0]
    return m


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b over the last axis; np.cross is slow on small arrays."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)
