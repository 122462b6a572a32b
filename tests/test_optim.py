"""Losses, dataset generation, and the two gradient experiments."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ground_scene, projected_sq_error, quad_object
from emtrace import bvh as accel
from emtrace import optim
from emtrace.autodiff import DiffComplex, Tape
from emtrace.channel import ChannelError, GridSpec, subcarrier_frequencies
from emtrace.em import EvalContext, geometry_from_path, path_materials, transfer
from emtrace.geometry import rotation_from_ypr
from emtrace.optim import (Dataset, OptimConfig, OptimError, TrainLog, _converged,
                           _FrozenNmse, generate_dataset, learn_materials,
                           optimize_orientation)
from emtrace.scene import (AntennaArray, RadioDevice, RadioMaterial,
                           bundled_scene, load_scene)
from emtrace.tracer import compute_paths_between


class TestNmse:
    """The calibration loss on one record: one path of gain ``a``, flat over 3 subcarriers."""

    H = np.full(3, 1 + 2j)

    @staticmethod
    def loss(a, target):
        # a stand-in kernel whose one path gain is the eta it is evaluated at
        kernel = SimpleNamespace(gains=lambda eta: eta.reshape(1, 1, -1))
        nmse = _FrozenNmse(kernel, [[SimpleNamespace(delay_s=0.0)]], np.zeros(3), [target])
        return nmse(np.array([a], dtype=complex))[0]

    def test_equal_is_zero(self):
        assert self.loss(1 + 2j, self.H) == 0.0

    def test_zero_prediction_is_one(self):
        assert self.loss(0j, np.array([1 + 2j, -0.5j, 3.0])) == pytest.approx(1.0)

    def test_double_prediction_is_one(self):
        assert self.loss(2 + 4j, self.H) == pytest.approx(1.0)

    def test_zero_target_rejected(self):
        with pytest.raises(OptimError, match="zero-norm"):
            self.loss(1 + 2j, np.zeros(3, complex))


def test_projected_sq_error_gradient_vs_fd():
    rng = np.random.RandomState(1)
    n, p = 16, 3
    basis = rng.randn(n, p) + 1j * rng.randn(n, p)
    target = rng.randn(n) + 1j * rng.randn(n)
    x0 = rng.randn(p)
    y0 = rng.randn(p)

    def val(xs, ys, tape=None):
        if tape is not None:
            a = [DiffComplex(tape.leaf(x, f"x{i}"), tape.leaf(y, f"y{i}"))
                 for i, (x, y) in enumerate(zip(xs, ys))]
        else:
            a = [DiffComplex(x, y) for x, y in zip(xs, ys)]
        return projected_sq_error(tape, a, basis, target)

    tape = Tape()
    g = tape.gradient(val(x0, y0, tape))
    h = 1e-6
    for i in range(p):
        d = np.zeros(p)
        d[i] = h
        assert g[f"x{i}"] == pytest.approx((val(x0 + d, y0) - val(x0 - d, y0)) / (2 * h), rel=1e-6)
        assert g[f"y{i}"] == pytest.approx((val(x0, y0 + d) - val(x0, y0 - d)) / (2 * h), rel=1e-6)


class TestDataset:
    def test_shapes_and_determinism(self):
        sc = load_scene(bundled_scene("calib_truth"))
        ds1 = generate_dataset(sc, num_subcarriers=32, subcarrier_spacing_hz=30e3,
                               max_depth=1)
        ds2 = generate_dataset(sc, num_subcarriers=32, subcarrier_spacing_hz=30e3,
                               max_depth=1)
        assert len(ds1.records) == 25
        for r1, r2 in zip(ds1.records, ds2.records):
            assert r1.h.shape == (32,)
            assert np.array_equal(r1.h, r2.h)  # bit-identical regeneration

    def test_free_space_flat_magnitude(self, free_space_scene):
        ds = generate_dataset(free_space_scene, num_subcarriers=64,
                              subcarrier_spacing_hz=30e3, max_depth=1)
        h = ds.records[0].h
        assert np.abs(np.abs(h) - np.abs(h[0])).max() < 1e-15

    def test_400_probe_positions_128_subcarriers(self, free_space_scene):
        rng = np.random.RandomState(17)
        positions = rng.uniform(-200, 200, (400, 3)) + [0, 0, 210.0]
        ds = generate_dataset(free_space_scene, positions=positions,
                              num_subcarriers=128, subcarrier_spacing_hz=30e3,
                              max_depth=1)
        assert len(ds.records) == 400
        assert all(r.h.shape == (128,) for r in ds.records)

    def test_save_load_roundtrip(self, tmp_path, free_space_scene):
        ds = generate_dataset(free_space_scene, num_subcarriers=16,
                              subcarrier_spacing_hz=15e3, max_depth=1)
        p = str(tmp_path / "d.json")
        ds.save(p)
        back = Dataset.load(p)
        assert back.num_subcarriers == 16
        assert np.array_equal(back.records[0].h, ds.records[0].h)
        assert np.array_equal(back.records[0].position, ds.records[0].position)

    def test_load_rejects_non_numeric_fields(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"frequency_hz": 1e9, "num_subcarriers": 1, "subcarrier_spacing_hz": 1,'
                     ' "records": [{"position_m": ["a", 0, 0], "h_re": [1], "h_im": [0]}]}')
        with pytest.raises(OptimError, match="fields must be numbers"):
            Dataset.load(str(p))

    def test_needs_a_transmitter_and_positions(self, free_space_scene):
        no_tx = dataclasses.replace(free_space_scene, devices=free_space_scene.receivers)
        with pytest.raises(ChannelError, match="no transmitter"):
            generate_dataset(no_tx)
        no_rx = dataclasses.replace(free_space_scene,
                                    devices=free_space_scene.transmitters)
        with pytest.raises(OptimError, match="no probe positions"):
            generate_dataset(no_rx)


def small_calibration_problem(truth_eps=6.5, truth_sigma=0.04, init=(3.0, 0.1)):
    """Single trainable ground material, 5 receivers."""
    def build(eps, sig, trainable):
        sc = ground_scene(eps_r=eps, sigma=sig, half_extent=200.0,
                          tx=(0, -20, 15), polarization="V")
        sc.materials["ground"] = RadioMaterial("ground", "constant", eps_r=eps,
                                               sigma=sig, trainable=trainable)
        sc.devices = [sc.devices[0]]
        for i, x in enumerate((-20.0, -10.0, 0.0, 10.0, 20.0)):
            sc.devices.append(RadioDevice("rx", f"r{i}", np.array([x, 30.0, 1.5])))
        return sc

    truth = build(truth_eps, truth_sigma, False)
    init_scene = build(init[0], init[1], True)
    ds = generate_dataset(truth, num_subcarriers=64, subcarrier_spacing_hz=30e3,
                          max_depth=1)
    return truth, init_scene, ds


class TestLearnMaterials:
    def test_planted_truth_recovery(self):
        _, init_scene, ds = small_calibration_problem()
        cfg = OptimConfig(iterations=200, max_depth=1)
        log = learn_materials(init_scene, ds, cfg)
        assert abs(log.final_values["mat:ground:eps_r"] - 6.5) < 0.05
        assert log.losses[-1] < 1e-6

    def test_already_optimal_is_stationary(self):
        _, init_scene, _ = small_calibration_problem()
        ds_init = generate_dataset(init_scene, num_subcarriers=64,
                                   subcarrier_spacing_hz=30e3, max_depth=1)
        log = learn_materials(init_scene, ds_init,
                              OptimConfig(iterations=30, max_depth=1))
        assert log.losses[0] < 1e-25
        assert log.final_values["mat:ground:eps_r"] == 3.0
        assert log.final_values["mat:ground:sigma"] == 0.1
        # a flat loss stops once the window of 10 rows behind it is full
        assert len(log.rows) == 11

    def test_untouched_material_bit_unchanged(self):
        truth, init_scene, ds = small_calibration_problem()
        # an extra trainable material below ground: no path can reach it
        buried = quad_object("buried", "buried_mat",
                             [(-3, -3, -9), (3, -3, -9), (3, 3, -9), (-3, 3, -9)])
        for sc in (truth, init_scene):
            sc.objects.append(buried)
            sc.materials["buried_mat"] = RadioMaterial(
                "buried_mat", "constant", eps_r=3.0, sigma=0.1, trainable=(sc is init_scene))
        ds2 = generate_dataset(truth, num_subcarriers=64,
                               subcarrier_spacing_hz=30e3, max_depth=1)
        log = learn_materials(init_scene, ds2, OptimConfig(iterations=50, max_depth=1))
        assert log.final_values["mat:buried_mat:eps_r"] == 3.0
        assert log.final_values["mat:buried_mat:sigma"] == 0.1
        assert log.losses[-1] < log.losses[0]

    def test_line_search_loss_non_increasing(self):
        _, init_scene, ds = small_calibration_problem()
        log = learn_materials(init_scene, ds,
                              OptimConfig(iterations=40, max_depth=1))
        for a, b in zip(log.losses, log.losses[1:]):
            assert b <= a + 1e-18

    def test_zero_lr_is_stationary(self):
        _, init_scene, ds = small_calibration_problem()
        log = learn_materials(init_scene, ds,
                              OptimConfig(iterations=5, lr=0.0, max_depth=1))
        assert log.final_values["mat:ground:eps_r"] == 3.0
        assert all(l == log.losses[0] for l in log.losses)

    def test_projection_keeps_bounds(self):
        # the truth sits on both bounds, so overshooting steps are clipped onto them
        _, init_scene, ds = small_calibration_problem(truth_eps=1.0, truth_sigma=0.0,
                                                      init=(1.3, 0.05))
        log = learn_materials(init_scene, ds,
                              OptimConfig(iterations=60, max_depth=1))
        for _, _, vals in log.rows:
            assert vals["mat:ground:eps_r"] >= 1.0
            assert vals["mat:ground:sigma"] >= 0.0
        assert any(vals["mat:ground:eps_r"] == 1.0 for _, _, vals in log.rows)
        assert any(vals["mat:ground:sigma"] == 0.0 for _, _, vals in log.rows)

    def test_requires_trainable_material(self):
        truth, _, ds = small_calibration_problem()
        with pytest.raises(OptimError, match="trainable"):
            learn_materials(truth, ds)

    def test_frequency_mismatch_rejected(self):
        _, init_scene, ds = small_calibration_problem()
        ds.frequency_hz *= 2
        with pytest.raises(OptimError, match="frequenc"):
            learn_materials(init_scene, ds)

    def test_zero_norm_record_rejected(self):
        _, init_scene, ds = small_calibration_problem()
        ds.records[2].h = np.zeros_like(ds.records[2].h)
        with pytest.raises(OptimError, match="zero-norm target"):
            learn_materials(init_scene, ds, OptimConfig(max_depth=1))

    def test_non_finite_loss_aborts_with_diagnostic(self):
        _, init_scene, ds = small_calibration_problem()
        ds.records[0].h = ds.records[0].h * np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(OptimError, match="diverged"):
                learn_materials(init_scene, ds,
                                OptimConfig(iterations=5, max_depth=1))

    def test_traces_once_whatever_the_iteration_count(self, monkeypatch):
        from emtrace import tracer
        _, init_scene, ds = small_calibration_problem()
        solves = []  # candidates per batched solve
        real = tracer._solve_batch
        monkeypatch.setattr(tracer, "_solve_batch",
                            lambda *a: solves.append(a[2].shape[1]) or real(*a))
        monkeypatch.setattr(optim, "_REL_TOL", 0.0)  # both runs go to their caps
        counts = []
        for iterations in (5, 25):
            solves.clear()
            log = learn_materials(init_scene, ds,
                                  OptimConfig(iterations=iterations, max_depth=1))
            assert len(log.rows) == iterations
            counts.append(sum(solves))
        assert counts[0] == counts[1] > 0

    def test_records_no_tape(self, monkeypatch):
        truth = load_scene(bundled_scene("calib_truth"))
        init = load_scene(bundled_scene("calib_init"))
        ds = generate_dataset(truth, num_subcarriers=32, subcarrier_spacing_hz=30e3,
                              max_depth=1)
        tapes = []

        class CountingTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        monkeypatch.setattr(optim, "Tape", CountingTape)
        monkeypatch.setattr(optim, "_REL_TOL", 0.0)
        log = learn_materials(init, ds, OptimConfig(iterations=20, max_depth=1))
        # the kernel's closed-form gradient is used directly
        assert len(log.rows) == 20
        assert tapes == []
        buried = init.materials["buried_mat"]  # no path reaches it
        assert log.final_values["mat:buried_mat:eps_r"] == buried.eps_r
        assert log.final_values["mat:buried_mat:sigma"] == buried.sigma
        assert log.losses[-1] < log.losses[0]

    def test_gradients_match_fd_at_random_iterates(self):
        # spec invariant: 1e-3 relative agreement at 5 random iterates
        _, init_scene, ds = small_calibration_problem()
        tree = accel.build(init_scene)
        tx = init_scene.transmitters[0]
        f = subcarrier_frequencies(ds.num_subcarriers, ds.subcarrier_spacing_hz)
        from emtrace.channel import probe_receiver
        frozen = []
        for rec in ds.records:
            probe = probe_receiver(rec.position)
            paths = compute_paths_between(init_scene, tree, tx, probe, 1)
            basis = np.exp(-2j * np.pi * f[:, None]
                           * np.array([p.delay_s for p in paths])[None, :])
            frozen.append((probe, paths, basis, rec.h,
                           float(np.vdot(rec.h, rec.h).real)))

        def loss(eps, sig, tape=None):
            if tape is not None:
                eps, sig = tape.leaf(eps, "eps"), tape.leaf(sig, "sig")
            ctx = EvalContext(init_scene, material_values={"ground": (eps, sig)})
            total = 0.0
            for probe, paths, basis, target, norm2 in frozen:
                gains = [transfer(ctx, geometry_from_path(p),
                                  path_materials(init_scene, tree, p), tx, probe,
                                  "iso", "iso", 0.0, 0.0) for p in paths]
                total = total + projected_sq_error(tape, gains, basis, target) / norm2
            return total / len(frozen)

        rng = np.random.RandomState(13)
        for _ in range(5):
            eps0 = rng.uniform(2.0, 10.0)
            sig0 = rng.uniform(0.01, 0.3)
            tape = Tape()
            g = tape.gradient(loss(eps0, sig0, tape))
            he, hs = 1e-4 * eps0, 1e-4 * sig0
            fd_e = (float(loss(eps0 + he, sig0)) - float(loss(eps0 - he, sig0))) / (2 * he)
            fd_s = (float(loss(eps0, sig0 + hs)) - float(loss(eps0, sig0 - hs))) / (2 * hs)
            assert g["eps"] == pytest.approx(fd_e, rel=1e-3)
            assert g["sig"] == pytest.approx(fd_s, rel=1e-3)


class TestOrientation:
    def region_at_45deg(self):
        c = 70.71067811865476
        return GridSpec(origin=(c - 2.5, 47.5), cell_size=5.0, nx=1, ny=1,
                        height=50.0)

    def test_free_space_convergence(self):
        sc = load_scene(bundled_scene("orient"))
        log = optimize_orientation(sc, self.region_at_45deg(),
                                   OptimConfig(iterations=100, max_depth=1))
        gain_db = 10 * math.log10(log.losses[-1] / log.losses[0])
        assert gain_db >= 6.0
        bore = rotation_from_ypr(*(log.final_values[f"dev:tx:{k}"]
                                   for k in ("yaw", "pitch", "roll"))) @ [1, 0, 0]
        target = np.array([70.71067811865476, 50.0, 50.0]) - sc.device("tx").position
        target = target / np.linalg.norm(target)
        err = math.degrees(math.acos(min(1.0, float(bore @ target))))
        assert err < 1.0

    def test_traces_once_whatever_the_iteration_count(self, monkeypatch):
        from emtrace import tracer
        sc = load_scene(bundled_scene("box"))
        region = GridSpec(origin=(5.0, 3.0), cell_size=1.5, nx=2, ny=1, height=1.5)
        solves = []  # candidates per batched solve
        real = tracer._solve_batch
        monkeypatch.setattr(tracer, "_solve_batch",
                            lambda *a: solves.append(a[2].shape[1]) or real(*a))
        monkeypatch.setattr(optim, "_REL_TOL", 0.0)
        counts = []
        for iterations in (3, 12):
            solves.clear()
            log = optimize_orientation(sc, region, OptimConfig(
                iterations=iterations, max_depth=1))
            assert len(log.rows) == iterations
            counts.append(sum(solves))
        assert counts[0] == counts[1] > 0

    def test_builds_one_kernel_whatever_the_iteration_count(self, monkeypatch):
        from emtrace import em
        sc = load_scene(bundled_scene("box"))
        region = GridSpec(origin=(5.0, 3.0), cell_size=1.5, nx=2, ny=1, height=1.5)
        built = []
        real = em.PathKernel.__init__
        monkeypatch.setattr(em.PathKernel, "__init__",
                            lambda self, *a: built.append(1) or real(self, *a))
        monkeypatch.setattr(optim, "_REL_TOL", 0.0)
        for iterations in (3, 12):
            built.clear()
            log = optimize_orientation(sc, region, OptimConfig(
                iterations=iterations, max_depth=1))
            assert len(log.rows) == iterations
            assert len(built) == 1

    def test_objective_non_decreasing(self):
        sc = load_scene(bundled_scene("orient"))
        log = optimize_orientation(sc, self.region_at_45deg(),
                                   OptimConfig(iterations=40, max_depth=1))
        for a, b in zip(log.losses, log.losses[1:]):
            assert b >= a - 1e-18

    def test_isotropic_pattern_is_stationary(self):
        sc = load_scene(bundled_scene("orient"))
        sc.tx_array = AntennaArray(pattern="iso", polarization="V")
        log = optimize_orientation(sc, self.region_at_45deg(),
                                   OptimConfig(iterations=30, max_depth=1))
        # orientation-invariant: gradient ~ 0, orientation barely moves
        assert abs(log.final_values["dev:tx:yaw"]) < 1e-6
        assert log.losses[-1] == pytest.approx(log.losses[0], rel=1e-9)
        # a flat objective stops once the window of 10 rows behind it is full
        assert len(log.rows) == 11

    def test_unreachable_region_warns_and_keeps_orientation(self, two_ray_scene):
        region = GridSpec(origin=(40.0, -5.0), cell_size=5.0, nx=1, ny=1,
                          height=-20.0)  # below the ground plane
        with pytest.warns(UserWarning, match="no propagation path"):
            log = optimize_orientation(two_ray_scene, region,
                                       OptimConfig(iterations=10, max_depth=1))
        assert log.final_values["dev:tx:yaw"] == 0.0

    def test_empty_region_rejected(self):
        region = GridSpec(origin=(0.0, 0.0), cell_size=5.0, nx=0, ny=3)
        with pytest.raises(OptimError, match="empty region"):
            optimize_orientation(load_scene(bundled_scene("orient")), region)


def test_converged_against_a_zero_reference_loss():
    # the relative stop cannot divide by a zero loss; it stops once the loss is 0 again
    assert _converged([0.0] * 11, 1e-6)
    assert not _converged([0.0] * 10 + [1e-300], 1e-6)
    assert not _converged([0.0] * 10, 1e-6)


def test_trainlog_csv_format(tmp_path):
    log = TrainLog(["a", "b"])
    log.append(0, 0.5, {"a": 1.0, "b": 2.0})
    log.append(1, 0.25, {"a": 1.5, "b": 2.5})
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,loss,a,b"
    assert lines[1] == "0,0.5,1.0,2.0"
    p = str(tmp_path / "log.csv")
    log.save(p)
    assert open(p).read() == text
