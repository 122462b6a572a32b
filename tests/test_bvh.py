"""BVH queries against a brute-force linear-scan oracle."""

import math

import numpy as np
import pytest

from conftest import brute_force_first_hit, ground_scene, make_scene
from emtrace import bvh as accel
from emtrace.scene import RadioDevice, RadioMaterial, SceneObject


def random_soup_scene(n_triangles, seed=0, extent=50.0):
    rng = np.random.RandomState(seed)
    centers = rng.uniform(-extent, extent, (n_triangles, 3))
    verts = np.repeat(centers, 3, axis=0) + rng.uniform(-1.5, 1.5, (3 * n_triangles, 3))
    tris = np.arange(3 * n_triangles).reshape(-1, 3)
    obj = SceneObject("soup", "m", verts, tris)
    return make_scene(objects=[obj], materials=[RadioMaterial("m", "constant", eps_r=2.0)],
                      devices=[RadioDevice("tx", "tx", np.array([0.0, 0, 100.0])),
                               RadioDevice("rx", "rx", np.array([1.0, 0, 100.0]))])


class TestFirstHit:
    def test_ground_plane_hit(self):
        tree = accel.build(ground_scene())
        hit = tree.intersect(np.array([0.0, 0, 1.0]), np.array([0.0, 0, -1.0]))
        assert hit is not None
        assert hit.t == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(hit.normal, [0, 0, 1])
        assert np.allclose(hit.point, [0, 0, 0], atol=1e-12)

    def test_two_sided_from_below(self):
        tree = accel.build(ground_scene())
        hit = tree.intersect(np.array([0.0, 0, -1.0]), np.array([0.0, 0, 1.0]))
        assert hit is not None
        assert np.allclose(hit.normal, [0, 0, -1])  # flipped to face the ray

    def test_parallel_offset_ray_misses(self):
        tree = accel.build(ground_scene())
        assert tree.intersect(np.array([0.0, 0, 1.0]), np.array([1.0, 0, 0.0])) is None

    def test_ray_in_the_triangle_plane_misses(self):
        # parallel to both ground triangles: their determinant is exactly zero
        tree = accel.build(ground_scene())
        with np.errstate(invalid="ignore"):  # the flat leaf box's slab is 0 * inf
            assert tree.intersect(np.array([-5.0, 0.5, 0.0]), np.array([1.0, 0, 0.0])) is None

    def test_t_window_respected(self):
        # hits nearer than RAY_EPS are the ray's own origin surface; far ones count
        tree = accel.build(ground_scene())
        d = np.array([0.0, 0, -1.0])
        assert tree.intersect(np.array([0.0, 0, 0.5 * accel.RAY_EPS]), d) is None
        assert tree.intersect(np.array([0.0, 0, 1e6]), d).t == 1e6

    def test_empty_scene_always_misses(self):
        sc = make_scene(devices=[RadioDevice("tx", "tx", np.zeros(3)),
                                 RadioDevice("rx", "rx", np.ones(3))])
        tree = accel.build(sc)
        assert tree.num_prims == 0
        assert tree.intersect(np.zeros(3), np.array([1.0, 0, 0])) is None

    @pytest.mark.parametrize("n_tris,n_rays,seed", [(200, 500, 1), (10_000, 1000, 2)])
    def test_matches_brute_force(self, n_tris, n_rays, seed):
        sc = random_soup_scene(n_tris, seed=seed)
        tree = accel.build(sc)
        rng = np.random.RandomState(seed + 100)
        origins = rng.uniform(-60, 60, (n_rays, 3))
        dirs = rng.randn(n_rays, 3)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for o, d in zip(origins, dirs):
            want = brute_force_first_hit(sc, o, d)
            got = tree.intersect(o, d)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.prim == want[1]
                assert got.t == pytest.approx(want[0], rel=1e-9)

    def test_queries_are_pure(self):
        sc = random_soup_scene(100, seed=3)
        tree = accel.build(sc)
        o, d = np.array([0.0, 0, 60.0]), np.array([0.1, 0.2, -1.0]) / math.sqrt(1.05)
        first = tree.intersect(o, d)
        for _ in range(5):
            again = tree.intersect(o, d)
            assert (again is None) == (first is None)
            if first:
                assert again.t == first.t and again.prim == first.prim


class TestOccluded:
    def test_segment_above_plane_clear(self):
        tree = accel.build(ground_scene())
        assert not tree.occluded([0, 0, 1.0], [50, 3, 2.0])

    def test_segment_through_plane_blocked(self):
        tree = accel.build(ground_scene())
        assert tree.occluded([0, 0, 1.0], [5, 0, -1.0])

    def test_symmetry_and_brute_force(self):
        sc = random_soup_scene(300, seed=4)
        tree = accel.build(sc)
        rng = np.random.RandomState(9)
        for _ in range(300):
            p = rng.uniform(-60, 60, 3)
            q = rng.uniform(-60, 60, 3)
            d = q - p
            dist = np.linalg.norm(d)
            if dist < 1e-3:
                continue
            want = brute_force_first_hit(sc, p, d / dist, t_min=1e-4,
                                         t_max=dist - 1e-4) is not None
            assert tree.occluded(p, q) == want
            assert tree.occluded(q, p) == tree.occluded(p, q)

    def test_endpoint_epsilon_excludes_own_surface(self):
        tree = accel.build(ground_scene())
        # endpoint exactly on the plane: eps window keeps it unoccluded
        assert not tree.occluded([0, 0, 0.0], [10, 0, 5.0])

    def test_coincident_endpoints_rejected(self):
        tree = accel.build(ground_scene())
        with pytest.raises(ValueError):
            tree.occluded([1, 2, 3], [1, 2, 3])


def test_objects_without_triangles_add_no_primitives():
    ground = ground_scene()
    empty = SceneObject("empty", "ground", np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    sc = make_scene(objects=[empty, *ground.objects], materials=ground.materials.values(),
                    devices=ground.devices)
    tree, ref = accel.build(sc), accel.build(ground)
    assert tree.num_prims == 2
    assert tree.prim_object.tolist() == [1, 1]
    assert tree.solve_table.tobytes() == ref.solve_table.tobytes()


def test_leaf_bounds_contain_primitives():
    sc = random_soup_scene(500, seed=7)
    tree = accel.build(sc)
    # every triangle appears exactly once in the traversal order
    prims = sorted(t[3] for t in tree._tri)
    assert prims == list(range(tree.num_prims))


def test_deterministic_build():
    sc = random_soup_scene(777, seed=12)
    t1, t2 = accel.build(sc), accel.build(sc)
    assert t1._flat_nodes == t2._flat_nodes
    assert [a[3] for a in t1._tri] == [b[3] for b in t2._tri]
