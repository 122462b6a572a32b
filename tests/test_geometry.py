"""Rotations and the Fibonacci sphere lattice."""

import math

import numpy as np
import pytest

from emtrace.autodiff import Tape
from emtrace.geometry import (fibonacci_directions, rotation_entries,
                              rotation_from_ypr, spherical_angles, t_cross,
                              t_dot, t_normalize)


def test_zero_angles_is_identity():
    assert np.allclose(rotation_from_ypr(0, 0, 0), np.eye(3), atol=1e-15)


def test_quarter_turn_about_z_maps_x_to_y():
    R = rotation_from_ypr(math.pi / 2, 0, 0)
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_pitch_moves_boresight_down():
    # positive pitch rotates the +x boresight toward -z
    R = rotation_from_ypr(0, math.pi / 4, 0)
    v = R @ np.array([1.0, 0, 0])
    assert v[2] == pytest.approx(-math.sin(math.pi / 4))


def test_rotations_are_proper_over_1000_samples():
    rng = np.random.RandomState(42)
    for _ in range(1000):
        y, p, r = rng.uniform(-math.pi, math.pi, 3)
        R = rotation_from_ypr(y, p, r)
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_intrinsic_composition_order():
    # yaw about z, then pitch about the new y, then roll about the newest x
    y, p, r = 0.4, -0.7, 1.1
    Rz = np.array([[math.cos(y), -math.sin(y), 0],
                   [math.sin(y), math.cos(y), 0], [0, 0, 1]])
    Ry = np.array([[math.cos(p), 0, math.sin(p)], [0, 1, 0],
                   [-math.sin(p), 0, math.cos(p)]])
    Rx = np.array([[1, 0, 0], [0, math.cos(r), -math.sin(r)],
                   [0, math.sin(r), math.cos(r)]])
    assert np.allclose(rotation_from_ypr(y, p, r), Rz @ Ry @ Rx, atol=1e-14)


def test_rotation_entries_generic_matches_float_path():
    tape = Tape()
    y = tape.leaf(0.3, "y")
    rows = rotation_entries(y, 0.2, -0.5)
    R = rotation_from_ypr(0.3, 0.2, -0.5)
    got = np.array([[float(e) for e in row] for row in rows])
    assert np.array_equal(got, R)  # bit-identical: same math calls


class TestFibonacci:
    def test_single_direction_golden_value(self):
        # z_0 = 1 - 1/1 = 0, azimuth 0 -> the +x unit vector
        v = fibonacci_directions(1)
        assert np.allclose(v, [[1.0, 0.0, 0.0]], atol=1e-15)

    def test_lattice_formula_directly(self):
        n = 37
        v = fibonacci_directions(n)
        golden_sq = (3.0 + math.sqrt(5.0)) / 2.0
        for i in range(n):
            z = 1.0 - (2.0 * i + 1.0) / n
            phi = 2.0 * math.pi * i / golden_sq
            assert v[i, 2] == pytest.approx(z, abs=1e-15)
            assert math.atan2(v[i, 1], v[i, 0]) == pytest.approx(
                math.atan2(math.sin(phi), math.cos(phi)), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 4096])
    def test_unit_norms(self, n):
        v = fibonacci_directions(n)
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12

    def test_deterministic(self):
        assert np.array_equal(fibonacci_directions(500), fibonacci_directions(500))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            fibonacci_directions(0)

    def test_nearest_neighbor_spacing_uniformity(self):
        # brute-force pairwise scan: min/max nearest-neighbour angle < 2x apart
        v = fibonacci_directions(1000)
        cosines = np.clip(v @ v.T, -1, 1)
        np.fill_diagonal(cosines, -1.0)
        nn_angle = np.arccos(cosines.max(axis=1))
        assert nn_angle.max() / nn_angle.min() < 2.0


def test_tuple_helpers_match_numpy():
    rng = np.random.RandomState(0)
    for _ in range(20):
        a, b = rng.randn(3), rng.randn(3)
        assert t_dot(tuple(a), tuple(b)) == pytest.approx(a @ b)
        assert np.allclose(t_cross(tuple(a), tuple(b)), np.cross(a, b))
        assert np.allclose(t_normalize(tuple(a)), a / np.linalg.norm(a))


def test_spherical_angles_roundtrip():
    rng = np.random.RandomState(1)
    for _ in range(50):
        v = rng.randn(3)
        v /= np.linalg.norm(v)
        th, ph = spherical_angles(tuple(v))
        rec = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
               math.cos(th))
        assert np.allclose(rec, v, atol=1e-12)
