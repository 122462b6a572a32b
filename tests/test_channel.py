"""CIR packing, OFDM frequency response, coverage maps."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import ground_scene, make_scene, quad_object
from emtrace import bvh as accel
from emtrace.channel import (ChannelError, Cir, CoverageMap, GridSpec,
                             build_cir, coverage_map, frequency_response,
                             point_path_gain, probe_receiver,
                             subcarrier_frequencies)
from emtrace import channel, em
from emtrace.autodiff import DiffComplex, Tape
from emtrace.em import EmError, compute_gains, geometry_from_path, path_materials, transfer
from emtrace.em import EvalContext, synthetic_phase
from emtrace.geometry import SPEED_OF_LIGHT, mat_vec, rotation_from_ypr
from emtrace.scene import AntennaArray, RadioDevice, RadioMaterial, bundled_scene, load_scene
from emtrace.tracer import compute_paths, compute_paths_between


def two_ray_gains(scene, tree):
    return compute_gains(scene, tree, compute_paths(scene, tree, 1))


class TestCir:
    def test_filter_los_only(self, two_ray_scene, two_ray_bvh):
        gains = two_ray_gains(two_ray_scene, two_ray_bvh)
        cir = build_cir(gains, los=True, reflection=False)
        assert cir.a.shape[4] == 1
        assert cir.tau.shape == (1, 1, 1)

    def test_filter_nothing_is_valid(self, two_ray_scene, two_ray_bvh):
        gains = two_ray_gains(two_ray_scene, two_ray_bvh)
        cir = build_cir(gains, los=False, reflection=False)
        assert cir.a.shape[4] == 0
        assert cir.a.shape[:4] == (1, 1, 1, 1)

    def test_both_sorted_by_delay(self, two_ray_scene, two_ray_bvh):
        gains = two_ray_gains(two_ray_scene, two_ray_bvh)
        cir = build_cir(gains)
        assert cir.a.shape[4] == 2
        taus = cir.tau[0, 0]
        assert taus[0] < taus[1]  # LOS arrives first
        d_los = np.linalg.norm(two_ray_scene.device("rx").position
                               - two_ray_scene.device("tx").position)
        assert taus[0] == pytest.approx(d_los / SPEED_OF_LIGHT, rel=1e-12)

    def test_first_arrival_normalization(self, two_ray_scene, two_ray_bvh):
        gains = two_ray_gains(two_ray_scene, two_ray_bvh)
        absolute = build_cir(gains)
        shifted = build_cir(gains, normalize_delays=True)
        assert shifted.tau[0, 0, 0] == 0.0
        assert shifted.tau[0, 0, 1] == pytest.approx(
            absolute.tau[0, 0, 1] - absolute.tau[0, 0, 0])

    def test_ragged_pairs_zero_padded(self):
        # two receivers; the far one's bounce point misses the finite quad
        sc = ground_scene(half_extent=60.0)
        sc.devices.append(RadioDevice("rx", "rx2", np.array([100.0, 200.0, 10.0])))
        tree = accel.build(sc)
        gains = compute_gains(sc, tree, compute_paths(sc, tree, 1))
        cir = build_cir(gains)
        counts = (np.abs(cir.a[:, 0, 0, 0, :, 0]) > 0).sum(axis=1)
        assert counts.max() == 2 and counts.min() == 1


class TestFrequencyResponse:
    def test_centered_grid(self):
        f = subcarrier_frequencies(128, 30e3)
        assert len(f) == 128
        assert f[0] == -(127 / 2) * 30e3
        assert np.allclose(np.diff(f), 30e3)
        assert f.sum() == pytest.approx(0.0, abs=1e-6)

    def make_cir(self, a_list, tau_list):
        P = len(a_list)
        a = np.zeros((1, 1, 1, 1, P, 1), dtype=complex)
        a[0, 0, 0, 0, :, 0] = a_list
        tau = np.zeros((1, 1, P))
        tau[0, 0, :] = tau_list
        return Cir(a=a, tau=tau, rx_names=["rx"], tx_names=["tx"],
                   sample_times=np.zeros(1))

    def test_equals_per_path_sum_on_random_tensors(self):
        rng = np.random.RandomState(8)
        shape = (2, 2, 3, 2, 4, 3)  # rx, rx_ant, tx, tx_ant, path, time
        a = rng.randn(*shape) + 1j * rng.randn(*shape)
        tau = rng.uniform(0, 1e-6, (2, 3, 4))
        cir = Cir(a=a, tau=tau, rx_names=["r0", "r1"], tx_names=["t0", "t1", "t2"],
                  sample_times=np.zeros(3))
        fr = frequency_response(cir, 16, 30e3)
        phase = np.exp(-2j * np.pi * tau[:, :, :, None] * fr.frequencies)
        want = np.einsum("abcdpt,acpk->abcdkt", a, phase).reshape(4, 6, 16, 3)
        assert np.abs(fr.h - want).max() <= 1e-12 * np.abs(want).max()

    def test_no_paths_is_zero(self):
        fr = frequency_response(self.make_cir([], []), 8, 15e3)
        assert fr.h.shape == (1, 1, 8, 1) and not fr.h.any()

    def test_single_path_zero_delay_flat_unity(self):
        fr = frequency_response(self.make_cir([1.0], [0.0]), 64, 15e3)
        assert np.allclose(fr.h, 1.0)

    def test_single_path_magnitude_flat_phase_linear(self):
        n, df = 128, 30e3
        m = 3
        tau = m / (n * df)
        fr = frequency_response(self.make_cir([1.0], [tau]), n, df)
        h = fr.h[0, 0, :, 0]
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)
        dphase = np.diff(np.unwrap(np.angle(h)))
        assert np.allclose(dphase, -2 * math.pi * df * tau, atol=1e-9)

    def test_linearity_in_gains(self):
        rng = np.random.RandomState(8)
        a = rng.randn(3) + 1j * rng.randn(3)
        tau = np.abs(rng.randn(3)) * 1e-7
        h1 = frequency_response(self.make_cir(a, tau), 32, 30e3).h
        # power-of-two scaling commutes with rounding: bitwise equality
        h2 = frequency_response(self.make_cir(2.0 * a, tau), 32, 30e3).h
        assert np.array_equal(h2, 2.0 * h1)
        s = 2.5 - 1.25j
        h3 = frequency_response(self.make_cir(s * a, tau), 32, 30e3).h
        assert np.allclose(h3, s * h1, rtol=1e-13, atol=0)

    def test_two_path_ripple_ratio_closed_form(self):
        # delays chosen so the interference extremes land exactly on-grid
        n, df = 128, 30e3
        dtau = 2.0 / (n * df)
        f0 = subcarrier_frequencies(n, df)[0]
        a1 = 1.0
        a2 = 0.4 * cmath.exp(-2j * math.pi * f0 * dtau)  # aligned at k=0
        fr = frequency_response(self.make_cir([a1, a2], [0.0, dtau]), n, df)
        mag = np.abs(fr.h[0, 0, :, 0])
        want = (abs(a1) + abs(a2)) / abs(abs(a1) - abs(a2))
        assert mag.max() / mag.min() == pytest.approx(want, rel=1e-6)

    def test_two_ray_fixture_matches_per_point_interference(self, two_ray_scene,
                                                            two_ray_bvh):
        gains = two_ray_gains(two_ray_scene, two_ray_bvh)
        cir = build_cir(gains)
        n, df = 128, 30e3
        fr = frequency_response(cir, n, df)
        h = fr.h[0, 0, :, 0]
        a = cir.a[0, 0, 0, 0, :, 0]
        tau = cir.tau[0, 0]
        f = subcarrier_frequencies(n, df)
        want = (a[0] * np.exp(-2j * np.pi * f * tau[0])
                + a[1] * np.exp(-2j * np.pi * f * tau[1]))
        assert np.abs(h - want).max() / np.abs(want).max() < 1e-12

    def test_energy_identity_well_separated(self):
        # geometry solved so the delay split lands on a Dirichlet null
        n, df = 4096, 30e3
        target = 17.0 / (n * df)
        g = 10.0
        h = 0.5 * math.sqrt((SPEED_OF_LIGHT * target + g) ** 2 - g * g)
        sc = ground_scene(tx=(0, 0, h), rx=(g, 0, h))
        tree = accel.build(sc)
        cir = build_cir(compute_gains(sc, tree, compute_paths(sc, tree, 1)))
        fr = frequency_response(cir, n, df)
        mean_power = float(np.mean(np.abs(fr.h[0, 0, :, 0]) ** 2))
        total = float(np.sum(np.abs(cir.a[0, 0, 0, 0, :, 0]) ** 2))
        assert mean_power == pytest.approx(total, rel=0.01)


class TestCoverage:
    def test_free_space_cell_is_friis(self, free_space_scene):
        tree = accel.build(free_space_scene)
        grid = GridSpec(origin=(95.0, -5.0), cell_size=10.0, nx=1, ny=1, height=1.5)
        cm = coverage_map(free_space_scene, tree, grid, max_depth=1)
        lam = free_space_scene.wavelength
        want = (lam / (4 * math.pi * 100.0)) ** 2
        assert cm.gains[0, 0] == pytest.approx(want, rel=1e-9)

    def test_enclosed_cell_is_exactly_zero(self):
        L = 2.0
        faces = [
            [(-L, -L, -L), (L, -L, -L), (L, L, -L), (-L, L, -L)],
            [(-L, -L, L), (L, -L, L), (L, L, L), (-L, L, L)],
            [(-L, -L, -L), (L, -L, -L), (L, -L, L), (-L, -L, L)],
            [(-L, L, -L), (L, L, -L), (L, L, L), (-L, L, L)],
            [(-L, -L, -L), (-L, L, -L), (-L, L, L), (-L, -L, L)],
            [(L, -L, -L), (L, L, -L), (L, L, L), (L, -L, L)],
        ]
        objs = [quad_object(f"f{i}", "m", c) for i, c in enumerate(faces)]
        sc = make_scene(objects=objs,
                        materials=[RadioMaterial("m", "constant", eps_r=5.0)],
                        devices=[RadioDevice("tx", "tx", np.array([30.0, 0, 0.5])),
                                 RadioDevice("rx", "rx", np.array([40.0, 0, 0.5]))])
        tree = accel.build(sc)
        grid = GridSpec(origin=(-1.0, -1.0), cell_size=2.0, nx=1, ny=1, height=0.0)
        cm = coverage_map(sc, tree, grid, max_depth=2)
        assert cm.gains[0, 0] == 0.0

    def test_cell_equals_manual_evaluation(self, two_ray_scene, two_ray_bvh):
        grid = GridSpec(origin=(70.0, -10.0), cell_size=20.0, nx=1, ny=1, height=1.5)
        cm = coverage_map(two_ray_scene, two_ray_bvh, grid, max_depth=1)
        point = grid.cell_center(0, 0)
        from emtrace.channel import probe_receiver
        probe = probe_receiver(point)
        tx = two_ray_scene.device("tx")
        paths = compute_paths_between(two_ray_scene, two_ray_bvh, tx, probe, 1)
        ctx = EvalContext(two_ray_scene)
        total = 0.0
        for p in paths:
            mats = path_materials(two_ray_scene, two_ray_bvh, p)
            geom = geometry_from_path(p)
            for pol in ("_probe_theta", "_probe_phi"):
                a = transfer(ctx, geom, mats, tx, probe,
                             two_ray_scene.tx_array.pattern, pol,
                             two_ray_scene.tx_array.slants[0], 0.0)
                total += float(a.abs2())
        assert cm.gains[0, 0] == pytest.approx(total, rel=1e-12)

    def test_invariant_under_scene_permutation(self):
        wall = quad_object("wall", "m", [(20, -10, 0), (20, 10, 0), (20, 10, 20), (20, -10, 20)])
        ground = quad_object("ground", "m", [(-50, -50, 0), (50, -50, 0), (50, 50, 0), (-50, 50, 0)])
        devices = lambda: [RadioDevice("tx", "tx", np.array([0.0, 0, 10.0])),
                           RadioDevice("rx", "rx", np.array([10.0, 0, 1.5]))]
        mats = [RadioMaterial("m", "constant", eps_r=4.0, sigma=0.02)]
        grid = GridSpec(origin=(0.0, -10.0), cell_size=5.0, nx=3, ny=3, height=1.5)
        sc1 = make_scene(objects=[ground, wall], materials=mats, devices=devices())
        # permuted object order and reversed triangle order inside an object
        wall2 = quad_object("wall", "m", [(20, -10, 0), (20, 10, 0), (20, 10, 20), (20, -10, 20)])
        wall2.triangles = wall2.triangles[::-1].copy()
        sc2 = make_scene(objects=[wall2, ground], materials=mats, devices=devices())
        cm1 = coverage_map(sc1, accel.build(sc1), grid, max_depth=2)
        cm2 = coverage_map(sc2, accel.build(sc2), grid, max_depth=2)
        assert np.allclose(cm1.gains, cm2.gains, rtol=1e-9, atol=0)

    def test_needs_a_transmitter(self, free_space_scene):
        scene = dataclasses.replace(free_space_scene, devices=free_space_scene.receivers)
        grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, nx=1, ny=1)
        with pytest.raises(ChannelError, match="no transmitter"):
            coverage_map(scene, accel.build(scene), grid, 1)

    def test_unknown_tx_mode(self, free_space_scene):
        grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, nx=1, ny=1)
        with pytest.raises(ChannelError, match="tx_mode 'beam'"):
            coverage_map(free_space_scene, accel.build(free_space_scene), grid, 1,
                         tx_mode="beam")

    @pytest.mark.parametrize("nx, ny", [(-2, -3), (-1, 4)])
    def test_negative_grid_dimensions_rejected(self, nx, ny):
        with pytest.raises(ChannelError, match="nx and ny must be >= 0"):
            GridSpec(origin=(0.0, 0.0), cell_size=1.0, nx=nx, ny=ny)

    def test_cell_cap(self, free_space_scene):
        tree = accel.build(free_space_scene)
        grid = GridSpec(origin=(0, 0), cell_size=1.0, nx=1000, ny=1000)
        with pytest.raises(ChannelError, match="cap"):
            coverage_map(free_space_scene, tree, grid, 1)


def test_fibonacci_coverage_launches_once(box_scene, monkeypatch):
    from emtrace import tracer
    tree = accel.build(box_scene)
    grid = GridSpec(origin=(3.0, 2.0), cell_size=1.5, nx=2, ny=2, height=1.5)
    launched = []
    real = tracer.launch_candidates
    monkeypatch.setattr(tracer, "launch_candidates",
                        lambda *a, **k: launched.append(a[1]) or real(*a, **k))
    cm = coverage_map(box_scene, tree, grid, max_depth=2, method="fibonacci",
                      num_rays=256)
    tx = box_scene.device("tx")
    assert len(launched) == 1
    assert np.array_equal(launched[0], tx.position)
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            g, paths = point_path_gain(box_scene, tree, tx, grid.cell_center(ix, iy),
                                       2, method="fibonacci", num_rays=256)
            assert paths
            assert cm.gains[iy, ix] == float(g)


@pytest.mark.parametrize("tx_mode", ["central", "array"])
def test_coverage_chunks_keep_each_cell_in_place(box_scene, monkeypatch, tx_mode):
    arr = AntennaArray(num_rows=2, num_cols=2, pattern="tr38901", polarization="VH")
    tx = dataclasses.replace(box_scene.device("tx"), orientation=(0.4, -0.2, 0.1))
    sc = dataclasses.replace(box_scene, tx_array=arr, devices=[tx])
    tree = accel.build(sc)
    grid = GridSpec(origin=(3.0, 2.0), cell_size=1.5, nx=3, ny=3, height=1.5)
    whole = coverage_map(sc, tree, grid, 2, tx_mode=tx_mode)
    # five chunks of two cells, the last one short
    monkeypatch.setattr(channel, "CELL_CHUNK", 2)
    chunked = coverage_map(sc, tree, grid, 2, tx_mode=tx_mode)
    assert chunked.gains.tobytes() == whole.gains.tobytes()
    # every cell differs, so a gain placed in the wrong cell shows
    assert len(set(whole.gains.ravel().tolist())) == grid.num_cells
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            g, _ = point_path_gain(sc, tree, tx, grid.cell_center(ix, iy), 2, tx_mode=tx_mode)
            assert chunked.gains[iy, ix] == g


class TestTxModeArray:
    POINT = np.array([7.1, 5.9, 1.5])

    def test_equals_per_element_coherent_sum(self, box_scene):
        arr = AntennaArray(num_rows=2, num_cols=2, pattern="tr38901",
                           polarization="VH")
        tx = dataclasses.replace(box_scene.device("tx"), orientation=(0.4, -0.2, 0.1))
        sc = dataclasses.replace(box_scene, tx_array=arr, devices=[tx])
        tree = accel.build(sc)
        g, paths = point_path_gain(sc, tree, tx, self.POINT, 2, tx_mode="array")
        assert len(paths) > 1

        probe = probe_receiver(self.POINT)
        ctx = EvalContext(sc)
        lam = sc.wavelength
        offsets, slants = arr.element_layout(lam)
        assert len(slants) == 8
        world = offsets @ rotation_from_ypr(*tx.orientation).T
        coherent = unphased = 0.0
        for p in paths:
            mats = path_materials(sc, tree, p)
            geom = geometry_from_path(p)
            phases = np.exp(2j * np.pi * (world @ np.asarray(geom.k_dep)) / lam)
            for pol in ("_probe_theta", "_probe_phi"):
                el = np.array([transfer(ctx, geom, mats, tx, probe, arr.pattern,
                                        pol, float(s), 0.0).to_complex()
                               for s in slants])
                coherent += abs(np.sum(el * phases)) ** 2
                unphased += abs(np.sum(el)) ** 2
        assert float(g) == pytest.approx(coherent, rel=1e-9)
        # the element phases matter at this point, so the check has teeth
        assert abs(coherent - unphased) > 1e-3 * coherent

    def test_one_field_per_distinct_element(self, monkeypatch):
        sc = load_scene(bundled_scene("orient"))  # 8 x 2 V array: one distinct element
        tree = accel.build(sc)
        tx, point = sc.transmitters[0], (60.0, 40.0, 1.5)
        calls = []
        real = em.element_field
        for mod in (em, channel):  # every module that binds it
            monkeypatch.setattr(mod, "element_field", lambda *a: calls.append(a[0]) or real(*a))
        g, paths = point_path_gain(sc, tree, tx, point, 1, tx_mode="array")
        assert sc.tx_array.num_elements == 16 and len(paths) > 0
        # per path: the one distinct tx element and the two probe polarizations
        assert sorted(calls) == sorted(["tr38901", "_probe_theta", "_probe_phi"] * len(paths))
        # the forward value is the per-element coherent sum of transfer
        monkeypatch.undo()
        ctx = EvalContext(sc)
        offsets, slants = sc.tx_array.element_layout(sc.wavelength)
        rows = ctx.rotation_rows(tx)
        offsets_w = [mat_vec(rows, o.tolist()) for o in offsets]
        probe = probe_receiver(point)
        ref = 0.0
        for p in paths:
            geom = geometry_from_path(p)
            mats = path_materials(sc, tree, p)
            phases = [synthetic_phase(geom.k_dep, o, sc.wavelength) for o in offsets_w]
            for pol in ("_probe_theta", "_probe_phi"):
                a = sum((transfer(ctx, geom, mats, tx, probe, sc.tx_array.pattern, pol,
                                  float(s), 0.0) * ph for s, ph in zip(slants, phases)),
                        DiffComplex(0.0, 0.0))
                ref = ref + a.abs2()
        assert g == pytest.approx(ref, rel=1e-12)

    def test_single_element_equals_central(self, box_scene):
        tree = accel.build(box_scene)
        tx = box_scene.device("tx")
        assert box_scene.tx_array.num_elements == 1
        g_arr, _ = point_path_gain(box_scene, tree, tx, self.POINT, 2, tx_mode="array")
        g_cen, _ = point_path_gain(box_scene, tree, tx, self.POINT, 2)
        assert float(g_arr) == pytest.approx(float(g_cen), rel=1e-14)


def test_point_path_gain_rejects_tracked_positions(box_scene):
    # the kernel's fields are frozen at the traced geometry and materials
    tree = accel.build(box_scene)
    tx = box_scene.device("tx")
    tape = Tape()
    point = (7.1, 5.9, 1.5)
    moved = EvalContext(box_scene, positions={"tx": (tape.leaf(2.0, "x"), 4.0, 2.0)})
    with pytest.raises(EmError, match="positions"):
        point_path_gain(box_scene, tree, tx, point, 1, ctx=moved)
    name = next(iter(box_scene.materials))
    learned = EvalContext(box_scene, material_values={name: (tape.leaf(4.0, "e"), 0.1)})
    with pytest.raises(EmError, match="material_values"):
        point_path_gain(box_scene, tree, tx, point, 1, ctx=learned)


def test_no_path_coefficient_goes_through_transfer(box_scene, monkeypatch):
    """``em.transfer`` is the tests' reference; the library evaluates kernels."""
    import sys

    from emtrace.optim import OptimConfig, optimize_orientation
    calls = []
    real = em.transfer
    for name, mod in list(sys.modules.items()):
        if name.startswith("emtrace") and getattr(mod, "transfer", None) is real:
            monkeypatch.setattr(mod, "transfer", lambda *a: calls.append(1) or real(*a))
    assert not hasattr(em, "element_gains")
    arr = AntennaArray(num_rows=2, num_cols=1, pattern="tr38901", polarization="VH")
    sc = dataclasses.replace(box_scene, tx_array=arr, rx_array=arr)
    tree = accel.build(sc)
    ps = compute_paths(sc, tree, 2)
    assert ps.paths
    compute_gains(sc, tree, ps)
    compute_gains(dataclasses.replace(sc, synthetic_array=False), tree, ps)
    grid = GridSpec(origin=(3.0, 2.0), cell_size=1.5, nx=2, ny=2, height=1.5)
    for tx_mode in ("central", "array"):
        coverage_map(sc, tree, grid, 2, tx_mode=tx_mode)
    tx = sc.device("tx")
    tape = Tape()
    ctx = EvalContext(sc, orientations={"tx": (tape.leaf(0.3, "yaw"), 0.0, 0.0)})
    g, _ = point_path_gain(sc, tree, tx, TestTxModeArray.POINT, 2, ctx=ctx)
    assert tape.gradient(g)["yaw"] != 0.0
    optimize_orientation(sc, grid, OptimConfig(iterations=2, max_depth=1))
    assert calls == []


class TestCoverageIo:
    def test_binary_roundtrip(self, tmp_path, free_space_scene):
        tree = accel.build(free_space_scene)
        grid = GridSpec(origin=(50.0, -20.0), cell_size=4.0, nx=5, ny=3, height=2.0)
        cm = coverage_map(free_space_scene, tree, grid, max_depth=1)
        p = str(tmp_path / "cm.bin")
        cm.save_binary(p)
        back = CoverageMap.load_binary(p)
        assert back.grid == cm.grid
        assert np.array_equal(back.gains, cm.gains)
        assert back.frequency_hz == cm.frequency_hz

    def test_to_db_floor(self):
        grid = GridSpec(origin=(0, 0), cell_size=1.0, nx=2, ny=1)
        cm = CoverageMap(grid=grid, gains=np.array([[0.0, 1e-3]]), frequency_hz=1e9)
        db = cm.to_db()
        assert db[0, 0] == -150.0
        assert db[0, 1] == pytest.approx(-30.0)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b'{"format": "nope"}\n' + b"\x00" * 16)
        with pytest.raises(ChannelError):
            CoverageMap.load_binary(str(p))


def test_multi_device_dual_pol_tensor_layout():
    # 2 tx (2x1 VH = 4 elements), 2 rx (cross = 2 elements), doppler T=3
    sc = ground_scene()
    sc.devices = [
        RadioDevice("tx", "tx1", np.array([0.0, 0, 10.0])),
        RadioDevice("tx", "tx2", np.array([5.0, 5, 12.0])),
        RadioDevice("rx", "rx1", np.array([80.0, 0, 10.0])),
        RadioDevice("rx", "rx2", np.array([60.0, -20, 3.0])),
    ]
    from emtrace.scene import AntennaArray
    sc.tx_array = AntennaArray(num_rows=2, num_cols=1, pattern="iso",
                               polarization="VH")
    sc.rx_array = AntennaArray(pattern="iso", polarization="cross")
    tree = accel.build(sc)
    gains = compute_gains(sc, tree, compute_paths(sc, tree, 1))
    from emtrace.em import apply_doppler
    sc.device("tx1").velocity = np.array([1.0, 0.0, 0.0])
    gains = apply_doppler(gains, 1e6, 3)
    cir = build_cir(gains)
    assert cir.a.shape == (2, 2, 2, 4, 2, 3)
    assert cir.tau.shape == (2, 2, 2)
    fr = frequency_response(cir, 16, 30e3)
    assert fr.h.shape == (4, 8, 16, 3)
    # one element of the flattened response against a hand sum over paths
    r, re_, t, te, ti, k = 1, 0, 0, 2, 1, 5
    manual = sum(cir.a[r, re_, t, te, p, ti]
                 * np.exp(-2j * np.pi * fr.frequencies[k] * cir.tau[r, t, p])
                 for p in range(cir.a.shape[4]))
    assert fr.h[r * 2 + re_, t * 4 + te, k, ti] == pytest.approx(manual, abs=1e-18)


def test_load_cir_rejects_other_files(tmp_path):
    from emtrace.channel import load_cir
    p = tmp_path / "cm.bin"
    p.write_bytes(b'{"format": "emtrace-coverage-v1"}\n')
    with pytest.raises(ChannelError, match="not a CIR file"):
        load_cir(str(p))


def test_cir_binary_roundtrip(tmp_path, two_ray_scene, two_ray_bvh):
    from emtrace.channel import load_cir, save_cir
    gains = two_ray_gains(two_ray_scene, two_ray_bvh)
    cir = build_cir(gains)
    p = str(tmp_path / "cir.bin")
    save_cir(cir, p)
    back = load_cir(p)
    assert np.array_equal(back.a, cir.a)
    assert np.array_equal(back.tau, cir.tau)
    assert back.rx_names == cir.rx_names
