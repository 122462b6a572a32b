"""Patterns, Fresnel coefficients, path coefficients, Doppler."""

import cmath
import math

import numpy as np
import pytest

from conftest import ground_scene, make_scene, quad_object
from emtrace import bvh as accel
from emtrace import tracer
from emtrace.autodiff import Tape
from emtrace.em import (EmError, EvalContext, PathKernel, _fresnel_arrays, apply_doppler,
                        compute_gains, fresnel, geometry_for_positions,
                        geometry_from_path, get_pattern, path_materials,
                        synthetic_phase, transfer)
from emtrace.geometry import SPEED_OF_LIGHT, rotation_from_ypr
from emtrace.scene import AntennaArray, RadioDevice, RadioMaterial
from emtrace.tracer import compute_paths, image_solve, path_from_points

TWO_PI = 2 * math.pi


def gain_of(name, theta, phi):
    e_th, e_ph = get_pattern(name)(theta, phi)
    return float(e_th) ** 2 + float(e_ph) ** 2


class TestPatterns:
    def test_iso_unit_gain_everywhere(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            th, ph = rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)
            assert gain_of("iso", th, ph) == 1.0

    def test_half_wave_dipole_peak(self):
        # independent evaluation of cos(pi/2 cos t)/sin t, peak 1.643 = 2.15 dBi
        assert gain_of("dipole", math.pi / 2, 0.0) == pytest.approx(1.643, rel=1e-9)
        for th in [0.3, 0.9, 1.2, 2.0, 2.8]:
            want = 1.643 * (math.cos(math.pi / 2 * math.cos(th)) / math.sin(th)) ** 2
            assert gain_of("dipole", th, 0.5) == pytest.approx(want, rel=1e-12)

    def test_dipole_pole_is_null(self):
        assert gain_of("dipole", 0.0, 0.0) == 0.0

    def test_tr38901_boresight_8dbi(self):
        assert gain_of("tr38901", math.pi / 2, 0.0) == pytest.approx(10 ** 0.8, rel=1e-9)

    def test_tr38901_3db_beamwidths(self):
        bore = gain_of("tr38901", math.pi / 2, 0.0)
        half_az = gain_of("tr38901", math.pi / 2, math.radians(32.5))
        half_el = gain_of("tr38901", math.pi / 2 + math.radians(32.5), 0.0)
        assert bore / half_az == pytest.approx(10 ** 0.3, rel=1e-9)
        assert bore / half_el == pytest.approx(10 ** 0.3, rel=1e-9)

    def test_tr38901_front_back_floor(self):
        # behind the element both cuts clamp: 8 - 30 dBi
        assert 10 * math.log10(gain_of("tr38901", math.pi / 2, math.pi)) == \
            pytest.approx(8.0 - 30.0, abs=1e-9)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(EmError, match="nope"):
            get_pattern("nope")

    @pytest.mark.parametrize("name,bound", [
        ("iso", 1.0 + 1e-4),
        # textbook 1.643 peak vs exact 1.6409 directivity: 0.13% over
        ("dipole", 1.0 + 2e-3),
        ("tr38901", 1.0 + 1e-4),
    ])
    def test_gain_integral_at_most_whole_sphere(self, name, bound):
        n_th, n_ph = 200, 400
        th = (np.arange(n_th) + 0.5) * math.pi / n_th
        ph = (np.arange(n_ph) + 0.5) * 2 * math.pi / n_ph - math.pi
        total = 0.0
        for t in th:
            row = sum(gain_of(name, float(t), float(p)) for p in ph)
            total += row * math.sin(t)
        total *= (math.pi / n_th) * (2 * math.pi / n_ph)
        assert total / (4 * math.pi) <= bound


class TestFresnel:
    def test_normal_incidence_lossless(self):
        r_te, r_tm = fresnel(4.0 + 0j, 1.0)
        assert r_te.to_complex() == pytest.approx(-1 / 3, abs=1e-15)
        assert r_tm.to_complex() == pytest.approx(-1 / 3, abs=1e-15)

    def test_normal_incidence_equality_random(self):
        rng = np.random.RandomState(2)
        for _ in range(100):
            eta = rng.uniform(1.0, 40.0)
            want = (1 - math.sqrt(eta)) / (1 + math.sqrt(eta))
            r_te, r_tm = fresnel(complex(eta), 1.0)
            assert r_te.to_complex() == pytest.approx(want, abs=1e-12)
            assert r_tm.to_complex() == pytest.approx(want, abs=1e-12)

    def test_normal_incidence_equality_low_loss(self):
        # Im eta << Re eta: the root's imaginary part must not cancel
        r_te, r_tm = fresnel(3 - 6.1e-7j, 1.0)
        assert abs(r_te.im - r_tm.im) <= 1e-12 * abs(r_te.im)
        r_te, r_tm, _ = _fresnel_arrays(np.array([3 - 6.1e-7j]), np.array([1.0]))
        assert abs(r_te[0].imag - r_tm[0].imag) <= 1e-12 * abs(r_te[0].imag)

    def test_arrays_mixed_sign_real_part(self):
        # eps_r 0.5 (a power_law material) beside eps_r 3 in one call: Re(eta -
        # sin^2) takes both signs, and neither root component may cancel
        eta = np.array([0.5 - 0.3j, 3 - 6.1e-7j, 0.5 - 1e-9j, 3.0 + 0j, 0.25 + 0j, 1 - 1e9j])
        cos = np.array([0.5, 1.0, 0.5, 0.3, 0.5, 0.5])
        r_te, r_tm, w = _fresnel_arrays(eta, cos)
        for k in range(len(eta)):
            # the bits of cmath's root, which the scalar fresnel takes
            assert w[k] == cmath.sqrt(eta[k] - (1.0 - cos[k] * cos[k]))
            te, tm = fresnel(complex(eta[k]), float(cos[k]))
            assert r_te[k] == pytest.approx(te.to_complex(), rel=1e-12)
            assert r_tm[k] == pytest.approx(tm.to_complex(), rel=1e-12)

    def test_grazing_limit(self):
        for eta in [2.0 + 0j, 10 - 3j, 80 - 40j]:
            r_te, _ = fresnel(eta, 1e-9)
            assert r_te.to_complex() == pytest.approx(-1.0, abs=1e-4)

    def test_pec_limit(self):
        r_te, r_tm = fresnel(1 - 1e9j, 0.5)
        assert abs(r_te.to_complex()) == pytest.approx(1.0, abs=1e-4)
        assert abs(r_tm.to_complex()) == pytest.approx(1.0, abs=1e-4)

    def test_passivity_sweep(self):
        rng = np.random.RandomState(3)
        for _ in range(10_000):
            eta = complex(rng.uniform(1, 50), -rng.uniform(0, 200))
            c = rng.uniform(0, 1)
            r_te, r_tm = fresnel(eta, c)
            assert abs(r_te.to_complex()) <= 1.0 + 1e-12
            assert abs(r_tm.to_complex()) <= 1.0 + 1e-12

    def test_reflectance_gradient_at_eps_three(self):
        # d|r_TE|^2/d eps_r at eps_r = 3 against central differences,
        # step 1e-4 * eps_r, agreement better than 1e-5 relative
        from emtrace.scene import RadioMaterial, material_eval

        def reflectance(eps, tape=None):
            if tape is not None:
                eps = tape.leaf(eps, "eps")
            m = RadioMaterial("x", "constant", eps_r=3.0, sigma=0.1)
            ev = material_eval(m, 1e9, eps_override=eps)
            r_te, _ = fresnel(ev.eta, 0.7)
            out = r_te.abs2()
            return out if tape is not None else float(out)

        tape = Tape()
        g = tape.gradient(reflectance(3.0, tape))["eps"]
        h = 1e-4 * 3.0
        fd = (reflectance(3.0 + h) - reflectance(3.0 - h)) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-5)

    def test_real_complex_and_diff_permittivity_agree(self):
        from emtrace.autodiff import DiffComplex
        want = fresnel(DiffComplex(4.0, 0.0), 0.6)
        for eta in (4.0, 4 + 0j):
            got = fresnel(eta, 0.6)
            assert [r.to_complex() for r in got] == [r.to_complex() for r in want]

    def test_against_textbook_form(self):
        # independent: classic expressions via sines and cosines
        rng = np.random.RandomState(4)
        for _ in range(200):
            eta = complex(rng.uniform(1, 30), -rng.uniform(0, 30))
            ci = rng.uniform(0.01, 1.0)
            si2 = 1 - ci * ci
            root = cmath.sqrt(eta - si2)
            want_te = (ci - root) / (ci + root)
            want_tm = -(eta * ci - root) / (eta * ci + root)
            r_te, r_tm = fresnel(eta, ci)
            assert r_te.to_complex() == pytest.approx(want_te, rel=1e-12)
            assert r_tm.to_complex() == pytest.approx(want_tm, rel=1e-12)


class TestTransport:
    def test_reflected_field_matches_textbook_dyad(self):
        # independent route: classic geometrical-optics reflection dyad with
        # the ITU-style parallel coefficient and its basis; the physical
        # field vector must agree with reflect_field's bookkeeping exactly
        from emtrace.em import reflect_field

        rng = np.random.RandomState(21)
        n = np.array([0.0, 0.0, 1.0])
        for _ in range(100):
            k_in = rng.randn(3)
            k_in[2] = -abs(k_in[2]) - 0.1  # downward onto the plane
            k_in /= np.linalg.norm(k_in)
            k_out = k_in - 2 * (k_in @ n) * n
            eta = complex(rng.uniform(1.5, 30), -rng.uniform(0, 20))
            ci = -float(k_in @ n)

            # independent implementation
            e_perp = np.cross(k_in, n)
            e_perp /= np.linalg.norm(e_perp)
            e_par_i = np.cross(k_in, e_perp)
            e_par_r = np.cross(k_out, e_perp)
            root = cmath.sqrt(eta - (1 - ci * ci))
            gamma_perp = (ci - root) / (ci + root)
            gamma_par = (eta * ci - root) / (eta * ci + root)
            f_in = rng.randn(3) + 1j * rng.randn(3)
            f_in -= (f_in @ k_in) * k_in  # transverse field
            want = (gamma_perp * (f_in @ e_perp) * e_perp
                    + gamma_par * (f_in @ e_par_i) * e_par_r)

            r_te, r_tm = fresnel(eta, ci)
            from emtrace.autodiff import DiffComplex
            field = tuple(DiffComplex(c.real, c.imag) for c in f_in)
            got = reflect_field(field, tuple(k_in), tuple(k_out), tuple(n),
                                r_te, r_tm)
            got = np.array([g.to_complex() for g in got])
            assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


class TestSyntheticPhase:
    def test_zero_offset(self):
        assert synthetic_phase((1, 0, 0), (0, 0, 0), 0.3).to_complex() == 1.0 + 0j

    def test_broadside(self):
        assert synthetic_phase((1, 0, 0), (0, 0.5, 0), 0.3).to_complex() == \
            pytest.approx(1.0 + 0j)

    def test_endfire_half_wavelength(self):
        lam = 0.3
        z = synthetic_phase((1, 0, 0), (lam / 2, 0, 0), lam).to_complex()
        assert z == pytest.approx(-1.0 + 0j, abs=1e-12)


class TestPathCoefficient:
    def test_friis_amplitude(self, free_space_scene):
        tree = accel.build(free_space_scene)
        ps = compute_paths(free_space_scene, tree, 1)
        gains = compute_gains(free_space_scene, tree, ps)
        a = gains.entries[0].a[0, 0, 0]
        lam = free_space_scene.wavelength
        want = lam / (4 * math.pi * 100.0)
        assert abs(a) == pytest.approx(want, rel=1e-12)
        assert abs(a) == pytest.approx(2.3856e-4, rel=1e-4)

    def test_phase_matches_delay(self, free_space_scene):
        tree = accel.build(free_space_scene)
        ps = compute_paths(free_space_scene, tree, 1)
        gains = compute_gains(free_space_scene, tree, ps)
        a = gains.entries[0].a[0, 0, 0]
        want = -TWO_PI * free_space_scene.frequency_hz * ps.paths[0].delay_s
        got = cmath.phase(a)
        assert (got - want) % TWO_PI == pytest.approx(0.0, abs=1e-6) or \
               (got - want) % TWO_PI == pytest.approx(TWO_PI, abs=1e-6)

    def test_two_ray_pec_vertical_dipoles(self):
        # hand evaluation: |a| = lambda/(4 pi d1) * Edip(dep) * Edip(arr) * |r|
        sc = ground_scene(eps_r=1.0, sigma=1e7, tx=(0, 0, 10), rx=(30, 0, 10),
                          polarization="V")
        sc.tx_array = AntennaArray(pattern="dipole", polarization="V")
        sc.rx_array = AntennaArray(pattern="dipole", polarization="V")
        tree = accel.build(sc)
        ps = compute_paths(sc, tree, 1)
        refl = [p for p in ps.paths if p.kind == "specular"][0]
        gains = compute_gains(sc, tree, ps)
        a_refl = [e for e in gains.entries if e.kind == "specular"][0].a[0, 0, 0]
        d1 = refl.length_m
        cos_t = -10.0 / math.hypot(15.0, 10.0)  # polar cosine of departure
        sin_t = 15.0 / math.hypot(15.0, 10.0)
        e_dip = math.sqrt(1.643) * math.cos(math.pi / 2 * cos_t) / sin_t
        lam = sc.wavelength
        want = lam / (4 * math.pi * d1) * e_dip * e_dip * 1.0
        assert abs(a_refl) == pytest.approx(want, rel=1e-3)

    def test_reciprocity_of_magnitudes(self, two_ray_scene, two_ray_bvh):
        ps = compute_paths(two_ray_scene, two_ray_bvh, 1)
        fwd = compute_gains(two_ray_scene, two_ray_bvh, ps)
        swapped = ground_scene(tx=(100, 0, 10), rx=(0, 0, 10))
        tree2 = accel.build(swapped)
        ps2 = compute_paths(swapped, tree2, 1)
        back = compute_gains(swapped, tree2, ps2)
        fa = sorted(abs(e.a[0, 0, 0]) for e in fwd.entries)
        ba = sorted(abs(e.a[0, 0, 0]) for e in back.entries)
        assert fa == pytest.approx(ba, rel=1e-9)

    def test_reciprocity_with_tilted_mixed_arrays(self):
        # swap devices AND their arrays/orientations: |a| matches per element
        # pair (transposed), even for cross-polarized directive antennas
        ypr_a, ypr_b = (0.3, -0.2, 0.7), (1.0, 0.4, -0.1)
        fwd = ground_scene(tx=(0, 0, 10), rx=(60, 5, 7), polarization="V")
        fwd.tx_array = AntennaArray(pattern="dipole", polarization="V")
        fwd.rx_array = AntennaArray(pattern="tr38901", polarization="cross")
        fwd.device("tx").orientation = ypr_a
        fwd.device("rx").orientation = ypr_b
        t1 = accel.build(fwd)
        g_fwd = compute_gains(fwd, t1, compute_paths(fwd, t1, 1))

        rev = ground_scene(tx=(60, 5, 7), rx=(0, 0, 10), polarization="V")
        rev.tx_array = AntennaArray(pattern="tr38901", polarization="cross")
        rev.rx_array = AntennaArray(pattern="dipole", polarization="V")
        rev.device("tx").orientation = ypr_b
        rev.device("rx").orientation = ypr_a
        t2 = accel.build(rev)
        g_rev = compute_gains(rev, t2, compute_paths(rev, t2, 1))

        for ef, er in zip(g_fwd.entries, g_rev.entries):
            af = np.abs(ef.a[:, :, 0])
            ar = np.abs(er.a[:, :, 0]).T
            assert np.abs(af - ar).max() <= 1e-9 * af.max()

    def test_synthetic_vs_explicit_8x2(self, two_ray_scene):
        sc = ground_scene(rx=(200, 0, 10))
        sc.tx_array = AntennaArray(num_rows=8, num_cols=2, vertical_spacing=0.7,
                                   horizontal_spacing=0.5, pattern="iso",
                                   polarization="H")
        tree = accel.build(sc)
        ps = compute_paths(sc, tree, 1)
        syn = compute_gains(sc, tree, ps)
        sc.synthetic_array = False
        exp = compute_gains(sc, tree, ps)
        for es, ee in zip(syn.entries, exp.entries):
            ratio = es.a[:, :, 0] / ee.a[:, :, 0]
            assert np.abs(np.abs(ratio) - 1).max() < 0.01
            assert np.abs(np.angle(ratio)).max() < 0.05

    def test_tracked_evaluation_bit_identical_to_plain(self, two_ray_scene,
                                                       two_ray_bvh):
        # wiring leaves through the full chain must not perturb the forward
        # values: same math calls, same order, same floats
        ps = compute_paths(two_ray_scene, two_ray_bvh, 1)
        refl = [p for p in ps.paths if p.kind == "specular"][0]
        tx, rx = two_ray_scene.device("tx"), two_ray_scene.device("rx")
        mats = path_materials(two_ray_scene, two_ray_bvh, refl)
        geom = geometry_from_path(refl)
        plain = transfer(EvalContext(two_ray_scene), geom, mats, tx, rx,
                         "iso", "iso", 0.0, 0.0).to_complex()
        tape = Tape()
        ctx = EvalContext(two_ray_scene, material_values={
            "ground": (tape.leaf(15.0, "e"), tape.leaf(0.015, "s"))})
        tracked = transfer(ctx, geom, mats, tx, rx, "iso", "iso",
                           0.0, 0.0).to_complex()
        assert tracked == plain  # bitwise

    def test_material_gradient_vs_fd(self, two_ray_scene, two_ray_bvh):
        ps = compute_paths(two_ray_scene, two_ray_bvh, 1)
        refl = [p for p in ps.paths if p.kind == "specular"][0]
        tx = two_ray_scene.device("tx")
        rx = two_ray_scene.device("rx")
        mats = path_materials(two_ray_scene, two_ray_bvh, refl)
        geom = geometry_from_path(refl)

        def power(eps, sig, tape=None):
            if tape is not None:
                eps, sig = tape.leaf(eps, "eps"), tape.leaf(sig, "sig")
            ctx = EvalContext(two_ray_scene, material_values={"ground": (eps, sig)})
            out = transfer(ctx, geom, mats, tx, rx, "iso", "iso",
                           math.pi / 2, math.pi / 2).abs2()
            return out if tape is not None else float(out)

        for eps0, sig0 in [(15.0, 0.015), (3.0, 0.1), (7.5, 0.4), (25.0, 0.001),
                           (5.24, 0.0462)]:
            tape = Tape()
            g = tape.gradient(power(eps0, sig0, tape))
            he = 1e-4 * eps0
            hs = 1e-4 * max(sig0, 1e-6)
            fd_e = (power(eps0 + he, sig0) - power(eps0 - he, sig0)) / (2 * he)
            fd_s = (power(eps0, sig0 + hs) - power(eps0, sig0 - hs)) / (2 * hs)
            assert g["eps"] == pytest.approx(fd_e, rel=1e-4)
            assert g["sig"] == pytest.approx(fd_s, rel=1e-4)

    def test_position_gradient_vs_fd(self, two_ray_scene, two_ray_bvh):
        # closed-form mirrored geometry keeps |a|^2 differentiable in rx position
        ps = compute_paths(two_ray_scene, two_ray_bvh, 1)
        refl = [p for p in ps.paths if p.kind == "specular"][0]
        tx = two_ray_scene.device("tx")
        rx = two_ray_scene.device("rx")
        mats = path_materials(two_ray_scene, two_ray_bvh, refl)

        def power(x, tape=None):
            if tape is not None:
                x = tape.leaf(x, "x")
            ctx = EvalContext(two_ray_scene,
                              positions={"rx": (x, 0.0, 10.0)})
            geom = geometry_for_positions(refl, ctx.position(tx), ctx.position(rx))
            out = transfer(ctx, geom, mats, tx, rx, "iso", "iso",
                           math.pi / 2, math.pi / 2).abs2()
            return out if tape is not None else float(out)

        x0 = 100.0
        tape = Tape()
        g = tape.gradient(power(x0, tape))["x"]
        h = 1e-5 * x0
        fd = (power(x0 + h) - power(x0 - h)) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-4)

    def test_moved_endpoints_parallel_to_plane_rejected(self, two_ray_scene, two_ray_bvh):
        refl = [p for p in compute_paths(two_ray_scene, two_ray_bvh, 1).paths
                if p.kind == "specular"][0]
        # mirrored tx and rx at equal height: the segment runs parallel to the ground
        with pytest.raises(EmError, match="degenerated"):
            geometry_for_positions(refl, (0.0, 0.0, 10.0), (100.0, 0.0, -10.0))

    def test_orientation_gradient_vs_fd(self, free_space_scene):
        tree = accel.build(free_space_scene)
        ps = compute_paths(free_space_scene, tree, 1)
        path = ps.paths[0]
        tx = free_space_scene.device("tx")
        rx = free_space_scene.device("rx")
        geom = geometry_from_path(path)

        def power(yaw, tape=None):
            if tape is not None:
                yaw = tape.leaf(yaw, "yaw")
            ctx = EvalContext(free_space_scene,
                              orientations={"tx": (yaw, 0.2, 0.0)})
            out = transfer(ctx, geom, (), tx, rx, "tr38901", "iso", 0.0, 0.0).abs2()
            return out if tape is not None else float(out)

        for y0 in [0.1, 0.5, 1.0]:
            tape = Tape()
            g = tape.gradient(power(y0, tape))["yaw"]
            h = 1e-6
            fd = (power(y0 + h) - power(y0 - h)) / (2 * h)
            assert g == pytest.approx(fd, rel=1e-4)


class TestDoppler:
    def make_los_gains(self, f_c=3.5e9):
        sc = make_scene(devices=[RadioDevice("tx", "tx", np.zeros(3)),
                                 RadioDevice("rx", "rx", np.array([100.0, 0, 0]))],
                        frequency_hz=f_c)
        tree = accel.build(sc)
        ps = compute_paths(sc, tree, 1)
        return compute_gains(sc, tree, ps)

    def test_static_scene_constant(self):
        gains = apply_doppler(self.make_los_gains(), 1e6, 14)
        a = gains.entries[0].a[0, 0, :]
        assert np.all(a == a[0])

    def test_closing_tx_raises_frequency(self):
        gains = apply_doppler(self.make_los_gains(), 1e6, 14, tx_velocities=[3, 0, 0])
        a = gains.entries[0].a[0, 0, :]
        assert np.allclose(np.abs(a), np.abs(a[0]))  # phase-only
        phase = np.unwrap(np.angle(a))
        slope = np.polyfit(gains.sample_times, phase, 1)[0] / TWO_PI
        want = 3.5e9 * 3.0 / SPEED_OF_LIGHT
        assert slope == pytest.approx(want, abs=0.01)
        assert want == pytest.approx(35.02, abs=0.01)

    def test_receding_rx_lowers_frequency(self):
        gains = apply_doppler(self.make_los_gains(), 1e6, 14, rx_velocities=[3, 0, 0])
        a = gains.entries[0].a[0, 0, :]
        slope = np.polyfit(gains.sample_times, np.unwrap(np.angle(a)), 1)[0] / TWO_PI
        assert slope == pytest.approx(-35.02, abs=0.01)

    def test_sample_grid(self):
        gains = apply_doppler(self.make_los_gains(), 1e6, 14)
        assert gains.entries[0].a.shape[-1] == 14
        assert np.allclose(np.diff(gains.sample_times), 1e-6)

    def test_scene_velocity_is_the_default(self):
        moving = self.make_los_gains()
        moving.scene.device("tx").velocity = np.array([3.0, 0.0, 0.0])
        static = self.make_los_gains()
        a = apply_doppler(moving, 1e6, 14).entries[0].a
        assert np.array_equal(a, apply_doppler(static, 1e6, 14,
                                               tx_velocities=[3, 0, 0]).entries[0].a)
        # an explicit velocity overrides the scene's
        assert np.array_equal(apply_doppler(moving, 1e6, 14, tx_velocities=[0, 0, 0])
                              .entries[0].a, apply_doppler(static, 1e6, 14).entries[0].a)

    @pytest.mark.parametrize("fs, steps", [(1e6, 0), (0.0, 4), (-1e6, 4),
                                           (float("nan"), 4), (math.inf, 4)])
    def test_bad_sampling_rejected(self, fs, steps):
        with pytest.raises(EmError, match="num_time_steps >= 1 and a positive"):
            apply_doppler(self.make_los_gains(), fs, steps)

    def test_double_application_rejected(self):
        gains = apply_doppler(self.make_los_gains(), 1e6, 4)
        with pytest.raises(EmError):
            apply_doppler(gains, 1e6, 4)


def test_fraunhofer_warning():
    sc = ground_scene(rx=(12, 0, 10))  # short link
    sc.tx_array = AntennaArray(num_rows=8, num_cols=8, vertical_spacing=2.0,
                               horizontal_spacing=2.0, pattern="iso",
                               polarization="H")
    tree = accel.build(sc)
    ps = compute_paths(sc, tree, 0)
    with pytest.warns(UserWarning, match="Fraunhofer"):
        compute_gains(sc, tree, ps)


class TestExplicitArrays:
    """``synthetic_array: false``: every element pair's path is re-solved."""

    @staticmethod
    def scene():
        # 6 m element spacing at 1 GHz: a wall whose top (9.5 m) sits
        # between the rows blocks the LOS of the low tx row to the low rx
        # row, and a side wall 11.5 m high misses the high rows' reflection
        mats = [RadioMaterial("wall", "constant", eps_r=5.0, sigma=0.02)]
        walls = [quad_object("blocker", "wall", [(25, -10, 0), (25, 10, 0),
                                                 (25, 10, 9.5), (25, -10, 9.5)]),
                 quad_object("side", "wall", [(-5, 15, 0), (55, 15, 0),
                                              (55, 15, 11.5), (-5, 15, 11.5)])]
        devices = [RadioDevice("tx", "tx", np.array([0.0, 0.0, 10.0]),
                               orientation=(0.1, 0.0, 0.05)),
                   RadioDevice("rx", "rx", np.array([50.0, 0.0, 10.0]),
                               orientation=(3.0, 0.0, 0.0))]
        return make_scene(
            objects=walls, materials=mats, devices=devices, synthetic_array=False,
            tx_array=AntennaArray(num_rows=2, num_cols=2, vertical_spacing=20.0,
                                  horizontal_spacing=20.0, pattern="tr38901",
                                  polarization="VH"),
            rx_array=AntennaArray(num_rows=2, num_cols=1, vertical_spacing=20.0,
                                  pattern="dipole", polarization="cross"))

    def test_equals_per_pair_reference_bit_for_bit(self):
        sc = self.scene()
        tree = accel.build(sc)
        ps = compute_paths(sc, tree, 1)
        assert [p.kind for p in ps.paths] == ["los", "specular"]
        gains = compute_gains(sc, tree, ps)
        ctx = EvalContext(sc)
        tx, rx = sc.device("tx"), sc.device("rx")
        off_tx, sl_tx = sc.tx_array.element_layout(sc.wavelength)
        off_rx, sl_rx = sc.rx_array.element_layout(sc.wavelength)
        off_tx = off_tx @ rotation_from_ypr(*tx.orientation).T
        off_rx = off_rx @ rotation_from_ypr(*rx.orientation).T
        zeros = 0
        for path, entry in zip(ps.paths, gains.entries):
            mats = path_materials(sc, tree, path)
            want = np.zeros((len(off_rx), len(off_tx)), dtype=complex)
            for i in range(len(off_rx)):
                for j in range(len(off_tx)):
                    t_pos, r_pos = tx.position + off_tx[j], rx.position + off_rx[i]
                    if path.kind == "los":
                        sub = None if tree.occluded(t_pos, r_pos) else path_from_points(
                            "tx", "rx", (), t_pos, r_pos, [], tree)
                    else:
                        sub = image_solve("tx", "rx", t_pos, r_pos, path.seq, tree)
                    if sub is None:
                        continue
                    elements = ([(sc.tx_array.pattern, float(sl_tx[j]))],
                                [(sc.rx_array.pattern, float(sl_rx[i]))])
                    kernel = PathKernel(sc, tree, [(tx, rx, [sub])], *elements)
                    want[i, j] = kernel.gains(kernel.etas(ctx))[0, 0, 0]
                    ref = transfer(ctx, geometry_from_path(sub), mats, tx, rx,
                                   sc.tx_array.pattern, sc.rx_array.pattern,
                                   float(sl_tx[j]), float(sl_rx[i])).to_complex()
                    assert abs(want[i, j] - ref) <= 1e-12 * abs(ref)
                    assert entry.k_dep[i, j].tobytes() == sub.k_dep.tobytes()
            assert entry.a[:, :, 0].tobytes() == want.tobytes()
            zeros += int((want == 0).sum())
        # both paths lose element pairs: 8 LOS pairs blocked, 8 reflections missed
        assert zeros == 16

    def test_one_solve_per_path(self, monkeypatch):
        sc = self.scene()
        tree = accel.build(sc)
        ps = compute_paths(sc, tree, 1)
        calls = []
        real = tracer._solve_batch
        monkeypatch.setattr(tracer, "_solve_batch",
                            lambda tx, rx, seqs, bvh: calls.append(seqs.shape)
                            or real(tx, rx, seqs, bvh))
        compute_gains(sc, tree, ps)
        # one column per element pair; LOS is order 0
        assert calls == [(0, 32), (1, 32)]
