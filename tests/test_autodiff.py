"""Tape correctness: per-op partials against finite differences, graph sweeps."""

import cmath
import math

import numpy as np
import pytest

from emtrace.autodiff import (DiffComplex, DiffScalar, Tape, TapeError, atan2,
                              cos, csqrt_posreal, exp, log, minimum, sin,
                              sqrt)

# (name, n_args, callable, sample points away from kinks/branch cuts)
UNARY_OPS = [
    ("neg", lambda x: -x, [0.7, -2.3, 10.0]),
    ("sqrt", sqrt, [0.25, 2.0, 17.5]),
    ("sin", sin, [0.3, -1.2, 2.9]),
    ("cos", cos, [0.3, -1.2, 2.9]),
    ("exp", exp, [-1.0, 0.4, 2.0]),
    ("log", log, [0.5, 1.7, 42.0]),
    ("pow3", lambda x: x ** 3, [0.8, -1.6, 2.2]),
    ("pow-0.5", lambda x: x ** -0.5, [0.9, 4.0, 0.2]),
    ("recip", lambda x: 1.0 / x, [0.5, -3.0, 8.0]),
]

BINARY_OPS = [
    ("add", lambda a, b: a + b, [(0.3, 1.2), (-5.0, 2.0)]),
    ("sub", lambda a, b: a - b, [(0.3, 1.2), (-5.0, 2.0)]),
    ("mul", lambda a, b: a * b, [(0.3, 1.2), (-5.0, 2.0)]),
    ("div", lambda a, b: a / b, [(0.3, 1.2), (-5.0, 2.0)]),
    ("atan2", atan2, [(0.3, 1.2), (-5.0, 2.0), (1.0, -1.0)]),
    ("min", minimum, [(0.3, 1.2), (4.0, 2.0)]),
]


def central_diff(f, x, h=None):
    h = h or 1e-6 * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize("name,op,points", UNARY_OPS, ids=[o[0] for o in UNARY_OPS])
def test_unary_partials_match_finite_differences(name, op, points):
    for x0 in points:
        tape = Tape()
        x = tape.leaf(x0, "x")
        y = op(x)
        d = tape.gradient(y)["x"]
        fd = central_diff(lambda v: float(op(v)), x0)
        assert d == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("name,op,points", BINARY_OPS, ids=[o[0] for o in BINARY_OPS])
def test_binary_partials_match_finite_differences(name, op, points):
    for a0, b0 in points:
        tape = Tape()
        a = tape.leaf(a0, "a")
        b = tape.leaf(b0, "b")
        y = op(a, b)
        g = tape.gradient(y)
        fd_a = central_diff(lambda v: float(op(v, b0)), a0)
        fd_b = central_diff(lambda v: float(op(a0, v)), b0)
        assert g["a"] == pytest.approx(fd_a, rel=1e-6, abs=1e-12)
        assert g["b"] == pytest.approx(fd_b, rel=1e-6, abs=1e-12)


def test_square_gradient():
    tape = Tape()
    x = tape.leaf(3.0, "x")
    y = x * x
    assert tape.gradient(y)["x"] == 6.0


def test_constant_output_has_zero_gradients():
    tape = Tape()
    x = tape.leaf(3.0, "x")
    y = tape.leaf(1.0, "y")
    c = x * 0.0 + 7.0
    g = tape.gradient(c)
    assert g["x"] == 0.0 and g["y"] == 0.0


def test_unused_leaf_gets_exactly_zero():
    tape = Tape()
    x = tape.leaf(2.0, "x")
    unused = tape.leaf(5.0, "unused")
    y = sin(x) * x
    g = tape.gradient(y)
    assert g["unused"] == 0.0
    assert g["x"] != 0.0


def test_each_node_contributes_once_in_fan_out():
    # y = x*x + x*x reuses the same intermediate twice
    tape = Tape()
    x = tape.leaf(1.5, "x")
    sq = x * x
    y = sq + sq
    assert tape.gradient(y)["x"] == pytest.approx(4 * 1.5)


def test_untracked_scalars_bit_identical_to_floats():
    vals = [0.123456789, -7.25, 3.9e-7, 123.0]
    for v in vals:
        d = DiffScalar(v)
        assert float(sqrt(abs(d * d))) == math.sqrt(abs(v * v))
        assert float(sin(d)) == math.sin(v)
        assert float(d * 3.7 + 2.0) == v * 3.7 + 2.0
        assert float(exp(d) / 5.0) == math.exp(v) / 5.0


def test_output_from_other_tape_rejected():
    t1, t2 = Tape(), Tape()
    x = t1.leaf(1.0, "x")
    y = x * 2.0
    with pytest.raises(TapeError):
        t2.gradient(y)
    with pytest.raises(TapeError):
        t1.gradient(DiffScalar(3.0))


def test_mixing_tapes_in_arithmetic_rejected():
    t1, t2 = Tape(), Tape()
    x = t1.leaf(1.0, "x")
    y = t2.leaf(2.0, "y")
    with pytest.raises(TapeError):
        _ = x + y


def test_cube_gradient():
    tape = Tape()
    x = tape.leaf(2.0, "x")
    assert tape.gradient(x * x * x)["x"] == pytest.approx(12.0)


def test_record_custom_fused_op():
    tape = Tape()
    x = tape.leaf(2.0, "x")
    y = tape.leaf(3.0, "y")
    # fused: f = x^2 + 2y with hand partials
    f = tape.record_custom(x.value**2 + 2 * y.value, [x, y], [2 * x.value, 2.0])
    g = tape.gradient(f * 2.0)
    assert g["x"] == pytest.approx(8.0)
    assert g["y"] == pytest.approx(4.0)


def test_record_custom_skips_untracked_inputs():
    tape = Tape()
    x = tape.leaf(2.0, "x")
    f = tape.record_custom(5.0, [x, DiffScalar(1.0), 3.0], [1.5, 9.9, 9.9])
    assert tape.gradient(f)["x"] == 1.5


def test_record_custom_rejects_input_of_other_tape():
    t1, t2 = Tape(), Tape()
    with pytest.raises(TapeError, match="different tape"):
        t1.record_custom(1.0, [t2.leaf(1.0, "x")], [1.0])


def test_num_nodes_counts_leaves_and_operations():
    tape = Tape()
    assert tape.num_nodes == 0
    x = tape.leaf(2.0, "x")
    y = x * 3.0 + x  # mul, add
    tape.record_custom(y.value, [x, y], [1.0, 1.0])
    assert tape.num_nodes == 4


class TestDiffComplex:
    def test_field_arithmetic(self):
        rng = np.random.RandomState(7)
        for _ in range(50):
            za, zb = (complex(*rng.randn(2)) for _ in range(2))
            a, b = DiffComplex.from_complex(za), DiffComplex.from_complex(zb)
            assert (a * b).to_complex() == pytest.approx(za * zb)
            assert (a + b).to_complex() == pytest.approx(za + zb)
            assert (a - b).to_complex() == pytest.approx(za - zb)
            assert (a / b).to_complex() == pytest.approx(za / zb)
            assert a.conj().to_complex() == za.conjugate()
            assert a.abs2() == pytest.approx(abs(za) ** 2)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_division_keeps_range_of_extreme_divisors(self, scale):
        # |o|^2 under- or overflows at these magnitudes; o itself does not
        for za, zb in [(3 + 4j, 1 + 2j), (-0.5 + 1e-3j, 2 - 0.25j), (1j, -3 + 0j)]:
            zb = zb * scale
            want = za / zb
            got = (DiffComplex.from_complex(za) / DiffComplex.from_complex(zb)).to_complex()
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_mixed_with_real_and_python_complex(self):
        tape = Tape()
        x = tape.leaf(2.0, "x")
        z = DiffComplex(1.0, -3.0)
        # a tape scalar on the left defers to DiffComplex's reflected operators
        assert (x * z).to_complex() == 2.0 - 6.0j
        assert (x + z).to_complex() == 3.0 - 3.0j
        assert (x - z).to_complex() == 1.0 + 3.0j
        assert tape.gradient((x * z).im) == {"x": -3.0}
        assert (z + 0.5j).to_complex() == 1.0 - 2.5j
        assert (z * (1 + 1j)).to_complex() == 4.0 - 2.0j

    def test_expj(self):
        z = DiffComplex.expj(0.73)
        assert z.to_complex() == pytest.approx(complex(math.cos(0.73), math.sin(0.73)))

    def test_csqrt_branch(self):
        rng = np.random.RandomState(3)
        for _ in range(200):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 0))  # lossy half-plane
            w = csqrt_posreal(DiffComplex.from_complex(z)).to_complex()
            assert w * w == pytest.approx(z, rel=1e-12, abs=1e-12)
            assert w.real >= 0.0
            if z.imag < 0:
                assert w.imag <= 0.0

    def test_csqrt_negative_real_axis(self):
        w = csqrt_posreal(DiffComplex(-4.0, 0.0)).to_complex()
        assert w == pytest.approx(2j)

    def test_csqrt_small_imaginary_part(self):
        # |Im z| << |Re z| on either side of the imaginary axis: no cancellation
        for z in (-0.25 - 1e-9j, 3 - 6.1e-7j, -4 - 1e-12j, 1e-9 - 2j):
            w = csqrt_posreal(DiffComplex.from_complex(z)).to_complex()
            assert abs(w - cmath.sqrt(z)) <= 1e-15 * abs(cmath.sqrt(z))

    def test_csqrt_gradient_matches_fd(self):
        def f(re, im):
            return abs(csqrt_posreal(DiffComplex(re, im)))

        for re0, im0 in [(2.0, -1.0), (0.5, -3.0), (4.0, -0.01)]:
            tape = Tape()
            re = tape.leaf(re0, "re")
            im = tape.leaf(im0, "im")
            y = abs(csqrt_posreal(DiffComplex(re, im)))
            g = tape.gradient(y)
            assert g["re"] == pytest.approx(central_diff(lambda v: float(f(v, im0)), re0), rel=1e-5)
            assert g["im"] == pytest.approx(central_diff(lambda v: float(f(re0, v)), im0), rel=1e-5)

    def test_csqrt_derivative_on_positive_real_axis(self):
        # a lossless medium: w = 2 at z = 4 + 0j, and dw/dz = 1/2w there too
        tape = Tape()
        re, im = tape.leaf(4.0, "re"), tape.leaf(-0.0, "im")
        w = csqrt_posreal(DiffComplex(re, im))
        assert w.to_complex() == 2.0
        assert tape.gradient(w.re) == {"re": 0.25, "im": 0.0}
        assert tape.gradient(w.im) == {"re": 0.0, "im": 0.25}


def test_backward_touches_each_node_once_counter():
    # gradient of a long chain stays exact (no double accumulation)
    tape = Tape()
    x = tape.leaf(1.01, "x")
    y = x
    for _ in range(100):
        y = y * x
    assert tape.gradient(y)["x"] == pytest.approx(101 * 1.01 ** 100, rel=1e-12)


def test_private_tapes_sum_like_one_tape():
    # worker pattern: record the same leaf on private tapes, sum gradients
    def term_a(x):
        return sin(x) * x

    def term_b(x):
        return exp(x) / (x + 2.0)

    single = Tape()
    x = single.leaf(0.8, "x")
    g_single = single.gradient(term_a(x) + term_b(x))["x"]

    t1, t2 = Tape(), Tape()
    g_split = (t1.gradient(term_a(t1.leaf(0.8, "x")))["x"]
               + t2.gradient(term_b(t2.leaf(0.8, "x")))["x"])
    assert g_split == pytest.approx(g_single, rel=1e-15)
