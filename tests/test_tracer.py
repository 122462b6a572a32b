"""Path finding: LOS, image method, candidates, dedup, reciprocity."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import ground_scene, make_scene, quad_object
from emtrace import bvh as accel
from emtrace.geometry import SPEED_OF_LIGHT
from emtrace.scene import RadioDevice, RadioMaterial
from emtrace.tracer import (TracerError, compute_paths, compute_paths_between,
                            enumerate_candidates, image_solve,
                            launch_candidates, los_path)


def corner_scene():
    """Two perpendicular walls meeting at x=0/y=0, a retroreflector."""
    wall_a = quad_object("wall_a", "metal",
                         [(0, 0, 0), (0, 10, 0), (0, 10, 10), (0, 0, 10)])
    wall_b = quad_object("wall_b", "metal",
                         [(0, 0, 0), (10, 0, 0), (10, 0, 10), (0, 0, 10)])
    return make_scene(
        objects=[wall_a, wall_b],
        materials=[RadioMaterial("metal", "constant", eps_r=1.0, sigma=1e7)],
        devices=[RadioDevice("tx", "tx", np.array([4.0, 3.0, 5.0])),
                 RadioDevice("rx", "rx", np.array([3.0, 4.0, 5.0]))])


class TestLos:
    def test_free_space_delay(self):
        sc = make_scene(devices=[RadioDevice("tx", "tx", np.zeros(3)),
                                 RadioDevice("rx", "rx", np.array([100.0, 0, 0]))])
        tree = accel.build(sc)
        p = los_path(tree, sc.device("tx"), sc.device("rx"))
        assert p is not None
        assert p.kind == "los" and p.order == 0
        assert p.length_m == 100.0
        assert p.delay_s == pytest.approx(100.0 / SPEED_OF_LIGHT, rel=1e-15)
        assert p.delay_s == pytest.approx(333.564095e-9, rel=1e-8)

    def test_wall_blocks(self):
        wall = quad_object("wall", "m", [(5, -5, 0), (5, 5, 0), (5, 5, 20), (5, -5, 20)])
        sc = make_scene(objects=[wall],
                        materials=[RadioMaterial("m", "constant", eps_r=3.0)],
                        devices=[RadioDevice("tx", "tx", np.array([0.0, 0, 10.0])),
                                 RadioDevice("rx", "rx", np.array([10.0, 0, 10.0]))])
        tree = accel.build(sc)
        assert los_path(tree, sc.device("tx"), sc.device("rx")) is None

    def test_coincident_devices_rejected(self):
        sc = make_scene(devices=[RadioDevice("tx", "tx", np.ones(3)),
                                 RadioDevice("rx", "rx", np.ones(3))])
        tree = accel.build(sc)
        with pytest.raises(TracerError, match="coincide"):
            los_path(tree, sc.device("tx"), sc.device("rx"))

    def test_clear_past_open_edge(self):
        wall = quad_object("wall", "m", [(5, -5, 0), (5, 5, 0), (5, 5, 20), (5, -5, 20)])
        sc = make_scene(objects=[wall],
                        materials=[RadioMaterial("m", "constant", eps_r=3.0)],
                        devices=[RadioDevice("tx", "tx", np.array([0.0, 8.0, 10.0])),
                                 RadioDevice("rx", "rx", np.array([10.0, 8.0, 10.0]))])
        tree = accel.build(sc)
        assert los_path(tree, sc.device("tx"), sc.device("rx")) is not None


class TestEnumerate:
    def test_two_prims_depth_two(self):
        sc = ground_scene()
        tree = accel.build(sc)
        got = set(enumerate_candidates(tree, 2))
        assert got == {(0,), (1,), (0, 1), (1, 0)}

    def test_two_prims_depth_three(self):
        sc = ground_scene()
        tree = accel.build(sc)
        got = set(enumerate_candidates(tree, 3))
        assert got == {(0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)}

    def test_cap_exceeded(self):
        sc = ground_scene()
        tree = accel.build(sc)
        with pytest.raises(TracerError, match="fibonacci"):
            enumerate_candidates(tree, 60)


class TestImageSolve:
    def test_single_bounce_symmetric(self):
        sc = ground_scene(tx=(0, 0, 10), rx=(20, 0, 10))
        tree = accel.build(sc)
        for seq in [(0,), (1,)]:
            p = image_solve("tx", "rx", [0, 0, 10], [20, 0, 10], seq, tree)
            if p is None:
                continue
            assert np.allclose(p.vertices[1], [10, 0, 0], atol=1e-9)
            assert p.length_m == pytest.approx(2 * math.hypot(10, 10), rel=1e-12)
            assert p.length_m == pytest.approx(28.2843, abs=1e-4)
            return
        pytest.fail("no ground triangle produced the mirror path")

    def test_point_outside_primitive_invalid(self):
        # ground covering only x < 5: the mirror point (10, 0, 0) is outside
        sc = ground_scene()
        small = quad_object("ground", "ground",
                            [(-5, -5, 0), (5, -5, 0), (5, 5, 0), (-5, 5, 0)])
        sc2 = make_scene(objects=[small], materials=list(sc.materials.values()),
                         devices=[RadioDevice("tx", "tx", np.array([0.0, 0, 10.0])),
                                  RadioDevice("rx", "rx", np.array([20.0, 0, 10.0]))])
        tree = accel.build(sc2)
        for seq in [(0,), (1,)]:
            assert image_solve("tx", "rx", [0, 0, 10], [20, 0, 10], seq, tree) is None

    def test_same_side_required(self):
        # receiver below the plane: reflection is impossible
        sc = ground_scene(half_extent=50)
        tree = accel.build(sc)
        for seq in [(0,), (1,)]:
            assert image_solve("tx", "rx", [0, 0, 10], [20, 0, -10], seq, tree) is None

    def test_on_plane_invariants(self):
        sc = ground_scene(tx=(3, -7, 12), rx=(25, 11, 6))
        tree = accel.build(sc)
        paths = compute_paths_between(sc, tree, sc.device("tx"), sc.device("rx"), 1)
        refl = [p for p in paths if p.kind == "specular"]
        assert len(refl) == 1
        p = refl[0]
        # interaction point on the plane within 1e-6 m
        assert abs(p.vertices[1][2]) < 1e-6
        # angle in == angle out within 1e-9 rad
        d_in = p.vertices[1] - p.vertices[0]
        d_out = p.vertices[2] - p.vertices[1]
        d_in /= np.linalg.norm(d_in)
        d_out /= np.linalg.norm(d_out)
        n = p.normals[0]
        assert abs(math.acos(-d_in @ n) - math.acos(d_out @ n)) < 1e-9
        # delay consistency: tau * c == summed length
        assert p.delay_s * SPEED_OF_LIGHT == pytest.approx(p.length_m, rel=1e-12)

    def test_corner_retroreflector_antiparallel(self):
        sc = corner_scene()
        tree = accel.build(sc)
        paths = compute_paths_between(sc, tree, sc.device("tx"), sc.device("rx"), 2)
        dbl = [p for p in paths if p.order == 2]
        assert dbl, "corner reflector must produce a double bounce"
        for p in dbl:
            # departure antiparallel to arrival within 1e-9 rad
            cross = np.linalg.norm(np.cross(p.k_dep, p.k_arr))
            assert p.k_dep @ p.k_arr < 0
            assert cross < 1e-9


class TestLaunch:
    def test_single_surface_found(self):
        sc = ground_scene()
        tree = accel.build(sc)
        got = launch_candidates(tree, [0, 0, 10], max_depth=1, num_rays=1000)
        assert got and got <= {(0,), (1,)}

    def test_empty_scene(self):
        sc = make_scene(devices=[RadioDevice("tx", "tx", np.zeros(3)),
                                 RadioDevice("rx", "rx", np.ones(3))])
        tree = accel.build(sc)
        assert launch_candidates(tree, [0, 0, 0], 2, 128) == set()

    def test_corner_double_bounce_found(self):
        sc = corner_scene()
        tree = accel.build(sc)
        got = launch_candidates(tree, [4, 3, 5], max_depth=2, num_rays=2000)
        exhaustive = set(enumerate_candidates(accel.build(sc), 2))
        assert got <= exhaustive
        wall_a_prims, wall_b_prims = {0, 1}, {2, 3}
        assert any(len(s) == 2 and s[0] in wall_a_prims and s[1] in wall_b_prims
                   for s in got)

    def test_prefixes_collected(self):
        sc = corner_scene()
        tree = accel.build(sc)
        got = launch_candidates(tree, [4, 3, 5], max_depth=2, num_rays=500)
        for s in got:
            if len(s) == 2:
                assert s[:1] in got


class TestComputePaths:
    def test_two_ray_depth_one(self, two_ray_scene, two_ray_bvh):
        ps = compute_paths(two_ray_scene, two_ray_bvh, max_depth=1)
        assert len(ps.paths) == 2
        kinds = [p.kind for p in ps.paths]
        assert kinds == ["los", "specular"]  # deterministic ordering

    def test_los_only_at_depth_zero(self, two_ray_scene, two_ray_bvh):
        ps = compute_paths(two_ray_scene, two_ray_bvh, max_depth=0)
        assert [p.kind for p in ps.paths] == ["los"]

    def test_closed_box_around_rx_blocks_everything(self):
        # rx sealed inside a closed cube, tx outside
        cube = []
        L = 2.0
        faces = [
            [(-L, -L, -L), (L, -L, -L), (L, L, -L), (-L, L, -L)],
            [(-L, -L, L), (L, -L, L), (L, L, L), (-L, L, L)],
            [(-L, -L, -L), (L, -L, -L), (L, -L, L), (-L, -L, L)],
            [(-L, L, -L), (L, L, -L), (L, L, L), (-L, L, L)],
            [(-L, -L, -L), (-L, L, -L), (-L, L, L), (-L, -L, L)],
            [(L, -L, -L), (L, L, -L), (L, L, L), (L, -L, L)],
        ]
        for i, c in enumerate(faces):
            cube.append(quad_object(f"f{i}", "m", c))
        sc = make_scene(objects=cube,
                        materials=[RadioMaterial("m", "constant", eps_r=5.0)],
                        devices=[RadioDevice("tx", "tx", np.array([30.0, 0, 0])),
                                 RadioDevice("rx", "rx", np.array([0.0, 0, 0.0]))])
        tree = accel.build(sc)
        ps = compute_paths(sc, tree, max_depth=2)
        assert ps.paths == []

    def test_fibonacci_subset_and_depth2_equality(self, box_scene):
        tree = accel.build(box_scene)
        ex = compute_paths(box_scene, tree, max_depth=2, method="exhaustive")
        fib = compute_paths(box_scene, tree, max_depth=2, method="fibonacci",
                            num_rays=4096)
        key = lambda p: (p.kind, p.seq)
        assert {key(p) for p in fib.paths} <= {key(p) for p in ex.paths}
        assert {key(p) for p in fib.paths} == {key(p) for p in ex.paths}
        ex_len = {key(p): p.length_m for p in ex.paths}
        for p in fib.paths:
            assert p.length_m == pytest.approx(ex_len[key(p)], rel=1e-12)

    def test_fibonacci_matches_exhaustive_at_depth3(self, box_scene):
        tree = accel.build(box_scene)
        ex = compute_paths(box_scene, tree, max_depth=3, method="exhaustive")
        fib = compute_paths(box_scene, tree, max_depth=3, method="fibonacci",
                            num_rays=16384)
        key = lambda p: (p.kind, p.seq)
        assert {key(p) for p in fib.paths} == {key(p) for p in ex.paths}

    def test_snell_invariant_everywhere(self, box_scene):
        tree = accel.build(box_scene)
        ps = compute_paths(box_scene, tree, max_depth=2)
        for p in ps.paths:
            for k in range(p.order):
                d_in = p.vertices[k + 1] - p.vertices[k]
                d_out = p.vertices[k + 2] - p.vertices[k + 1]
                d_in = d_in / np.linalg.norm(d_in)
                d_out = d_out / np.linalg.norm(d_out)
                n = p.normals[k]
                # equal angles and coplanarity with the normal
                assert abs(math.acos(np.clip(-d_in @ n, -1, 1))
                           - math.acos(np.clip(d_out @ n, -1, 1))) < 1e-9
                assert abs(np.cross(d_in, n) @ d_out) < 1e-9

    def test_reciprocity(self, box_scene):
        tree = accel.build(box_scene)
        fwd = compute_paths(box_scene, tree, max_depth=2)
        swapped = make_scene(
            objects=box_scene.objects, materials=list(box_scene.materials.values()),
            devices=[RadioDevice("tx", "tx2", box_scene.device("rx").position.copy()),
                     RadioDevice("rx", "rx2", box_scene.device("tx").position.copy())],
            frequency_hz=box_scene.frequency_hz)
        back = compute_paths(swapped, accel.build(swapped), max_depth=2)
        fwd_keys = sorted((p.kind, p.seq, round(p.length_m, 9)) for p in fwd.paths)
        back_keys = sorted((p.kind, tuple(reversed(p.seq)), round(p.length_m, 9))
                           for p in back.paths)
        assert fwd_keys == back_keys

    def test_no_duplicate_type_sequence_pairs(self, box_scene):
        tree = accel.build(box_scene)
        ps = compute_paths(box_scene, tree, max_depth=2)
        keys = [(p.kind, p.seq) for p in ps.paths]
        assert len(keys) == len(set(keys))

    def test_coplanar_triangles_merge_to_one_path(self, two_ray_scene, two_ray_bvh):
        # the ground quad is two coplanar triangles; one physical bounce only
        ps = compute_paths(two_ray_scene, two_ray_bvh, max_depth=1)
        assert sum(1 for p in ps.paths if p.kind == "specular") == 1

    @pytest.mark.parametrize("method", ["exhaustive", "fibonacci"])
    def test_coincident_twins_keep_the_smallest_sequence(self, method):
        # the same ground quad twice: exhaustive search solves the bounce as
        # (0,) and as its twin (2,), and the merge keeps (0,)
        ground = ground_scene(half_extent=200.0)
        twin = dataclasses.replace(ground.objects[0], name="twin")
        sc = dataclasses.replace(ground, objects=[ground.objects[0], twin])
        ps = compute_paths(sc, accel.build(sc), 1, method, num_rays=2048)
        assert [p.seq for p in ps.paths if p.kind == "specular"] == [(0,)]

    def test_requires_devices(self, two_ray_scene, two_ray_bvh):
        sc = make_scene(devices=[RadioDevice("tx", "tx", np.zeros(3))])
        with pytest.raises(TracerError):
            compute_paths(sc, accel.build(sc), 1)

    def test_unknown_method(self, two_ray_scene, two_ray_bvh):
        with pytest.raises(TracerError, match="method"):
            compute_paths(two_ray_scene, two_ray_bvh, 1, method="magic")


def test_compute_paths_launches_once_per_transmitter(box_scene, monkeypatch):
    from emtrace import tracer
    tree = accel.build(box_scene)
    txs = [RadioDevice("tx", "tx_a", np.array([2.3, 1.7, 1.1])),
           RadioDevice("tx", "tx_b", np.array([8.0, 6.0, 3.0]))]
    rxs = [RadioDevice("rx", f"rx{i}", np.array(p))
           for i, p in enumerate([(7.1, 5.9, 2.2), (1.5, 6.5, 1.5), (5.0, 4.0, 3.5)])]
    sc = dataclasses.replace(box_scene, devices=txs + rxs)
    launched = []
    real = tracer.launch_candidates
    monkeypatch.setattr(tracer, "launch_candidates",
                        lambda *a, **k: launched.append(a[1]) or real(*a, **k))
    ps = compute_paths(sc, tree, 2, method="fibonacci", num_rays=256)
    assert len(launched) == 2
    for got, tx in zip(launched, txs):
        assert np.array_equal(got, tx.position)
    assert {(p.tx, p.rx) for p in ps.paths} == {(t.name, r.name) for t in txs for r in rxs}
