import numpy as np
import pytest

from emtrace import bvh as accel
from emtrace.scene import (AntennaArray, RadioDevice, RadioMaterial, Scene,
                           SceneObject, bundled_scene, load_scene)


def quad_object(name, material, corners):
    return SceneObject(name=name, material=material,
                       vertices=np.array(corners, dtype=float),
                       triangles=np.array([[0, 1, 2], [0, 2, 3]]))


def make_scene(objects=(), materials=(), devices=(), frequency_hz=1e9,
               tx_array=None, rx_array=None, synthetic_array=True):
    scene = Scene(
        frequency_hz=frequency_hz,
        objects=list(objects),
        materials={m.name: m for m in materials},
        tx_array=tx_array or AntennaArray(pattern="iso", polarization="V"),
        rx_array=rx_array or AntennaArray(pattern="iso", polarization="V"),
        devices=list(devices),
        synthetic_array=synthetic_array,
    )
    scene.validate()
    return scene


def ground_scene(eps_r=15.0, sigma=0.015, half_extent=10000.0, tx=(0, 0, 10),
                 rx=(100, 0, 10), frequency_hz=1e9, polarization="H"):
    """A two-ray style fixture: one huge ground quad plus a tx/rx pair."""
    L = half_extent
    arr = AntennaArray(pattern="iso", polarization=polarization)
    return make_scene(
        objects=[quad_object("ground", "ground",
                             [(-L, -L, 0), (L, -L, 0), (L, L, 0), (-L, L, 0)])],
        materials=[RadioMaterial("ground", "constant", eps_r=eps_r, sigma=sigma)],
        devices=[RadioDevice("tx", "tx", np.array(tx, dtype=float)),
                 RadioDevice("rx", "rx", np.array(rx, dtype=float))],
        frequency_hz=frequency_hz, tx_array=arr, rx_array=arr,
    )


def brute_force_first_hit(scene, origin, direction, t_min=1e-4, t_max=np.inf):
    """Independent oracle: vectorized Moller-Trumbore over every triangle.

    Returns (t, global primitive index) or None; primitives are numbered in
    scene object order, triangles in storage order, matching the Bvh.
    """
    best_t, best_prim = t_max, -1
    base = 0
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    for obj in scene.objects:
        v = obj.vertices
        tri = obj.triangles
        if not len(tri):
            continue
        v0 = v[tri[:, 0]]
        e1 = v[tri[:, 1]] - v0
        e2 = v[tri[:, 2]] - v0
        pvec = np.cross(d, e2)
        det = np.einsum("ij,ij->i", e1, pvec)
        ok = np.abs(det) > 1e-12
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = o - v0
        u = np.einsum("ij,ij->i", tvec, pvec) * inv
        qvec = np.cross(tvec, e1)
        vv = (qvec @ d) * inv
        t = np.einsum("ij,ij->i", e2, qvec) * inv
        ok &= (u >= -1e-12) & (vv >= -1e-12) & (u + vv <= 1 + 1e-12)
        ok &= (t > t_min) & (t < best_t)
        if ok.any():
            local = int(np.argmin(np.where(ok, t, np.inf)))
            best_t, best_prim = float(t[local]), base + local
        base += len(tri)
    if best_prim < 0:
        return None
    return best_t, best_prim


@pytest.fixture(scope="session")
def two_ray_scene():
    return load_scene(bundled_scene("two_ray"))


@pytest.fixture(scope="session")
def two_ray_bvh(two_ray_scene):
    return accel.build(two_ray_scene)


@pytest.fixture(scope="session")
def free_space_scene():
    return load_scene(bundled_scene("free_space"))


@pytest.fixture(scope="session")
def box_scene():
    return load_scene(bundled_scene("box"))


def projected_sq_error(tape, a_list, basis, target):
    """||basis @ a - target||^2 as one fused tape node.

    ``basis`` [N, P] holds the fixed delay phasors of the subcarrier grid,
    ``a_list`` the P path gains. Gradients w.r.t. the gain components are
    accumulated through the fixed basis in closed form. With gains from the
    scalar :func:`em.transfer` this is the tape reference that
    ``optim._FrozenNmse`` is tested against.
    """
    avals = np.array([z.to_complex() for z in a_list]) if a_list else np.zeros(0, complex)
    e = (basis @ avals if len(a_list) else np.zeros(len(target), complex)) - target
    val = float(np.vdot(e, e).real)
    if tape is None or not a_list:
        return val
    g = basis.conj().T @ e
    inputs, partials = [], []
    for i, z in enumerate(a_list):
        inputs.append(z.re)
        partials.append(2.0 * g[i].real)
        inputs.append(z.im)
        partials.append(2.0 * g[i].imag)
    return tape.record_custom(val, inputs, partials)
