"""Vectors, rotations and deterministic sphere sampling.

Plain geometry uses float64 numpy arrays of shape (3,). The ``t_*`` helpers
mirror the same operations on 3-tuples whose entries may be floats or tape
scalars; the differentiable parts of the pipeline (mirrored path geometry,
pattern rotation) run through those so a single code path serves both the
fast forward evaluation and gradient recording.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import atan2, cos, sin, sqrt

SPEED_OF_LIGHT = 299792458.0  # m/s
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m

# golden ratio squared; 2*pi/GOLDEN_SQ is the golden angle
_GOLDEN_SQ = (3.0 + math.sqrt(5.0)) / 2.0


def rotation_from_ypr(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rotation matrix for intrinsic Z-Y'-X'' angles (yaw, pitch, roll).

    Yaw rotates about z, pitch about the new y, roll about the newest x;
    the matrix acts on column vectors. This is the single orientation
    convention used everywhere in the package.
    """
    return np.array(rotation_entries(yaw, pitch, roll), dtype=np.float64)


def rotation_entries(yaw, pitch, roll):
    """Rows of the yaw-pitch-roll rotation, generic over scalar type."""
    cy, sy = cos(yaw), sin(yaw)
    cp, sp = cos(pitch), sin(pitch)
    cr, sr = cos(roll), sin(roll)
    return (
        (cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr),
        (sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr),
        (-sp, cp * sr, cp * cr),
    )


def fibonacci_directions(n: int) -> np.ndarray:
    """n unit vectors from the spherical Fibonacci lattice, shape (n, 3).

    z_i = 1 - (2i+1)/n, azimuth_i = 2*pi*i / golden_ratio^2. Deterministic
    for fixed n; the offset keeps samples away from the poles.
    """
    if n < 1:
        raise ValueError("need at least one direction")
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = 2.0 * math.pi * i / _GOLDEN_SQ
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


# -- scalar-generic 3-vector helpers ----------------------------------------

def t_add(a, b) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def t_sub(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def t_scale(a, s) -> tuple:
    return (a[0] * s, a[1] * s, a[2] * s)


def t_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def t_cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def t_norm(a):
    return sqrt(t_dot(a, a))


def t_normalize(a) -> tuple:
    n = t_norm(a)
    return (a[0] / n, a[1] / n, a[2] / n)


def mat_vec(rows, v) -> tuple:
    """Apply a 3x3 matrix given as row tuples to a 3-vector."""
    return (t_dot(rows[0], v), t_dot(rows[1], v), t_dot(rows[2], v))


def mat_t_vec(rows, v) -> tuple:
    """Apply the transpose of a 3x3 matrix given as row tuples."""
    return (rows[0][0] * v[0] + rows[1][0] * v[1] + rows[2][0] * v[2],
            rows[0][1] * v[0] + rows[1][1] * v[1] + rows[2][1] * v[2],
            rows[0][2] * v[0] + rows[1][2] * v[1] + rows[2][2] * v[2])


def spherical_angles(k) -> tuple:
    """Polar angle from +z and azimuth from +x for a unit 3-vector.

    Uses atan2(hypot(x, y), z) instead of acos(z): identical for unit
    input, better conditioned near the poles, and differentiable.
    """
    theta = atan2(sqrt(k[0] * k[0] + k[1] * k[1]), k[2])
    phi = atan2(k[1], k[0])
    return theta, phi
