"""Bounding volume hierarchy over scene triangles: first-hit and occlusion queries.

The tree is a deterministic median split on the longest centroid axis.
Traversal and the Moller-Trumbore leaf test run on plain Python floats:
a query visits a few tiny leaves, where the per-call overhead of numpy
exceeds the arithmetic, and scalar code keeps queries allocation-free.
Work over many primitives at once, such as the batched image solve that
reads :attr:`Bvh.solve_table`, is numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LEAF_SIZE = 4
RAY_EPS = 1e-4  # meters; self-intersection offset for secondary rays
_DET_EPS = 1e-12
_BARY_EPS = 1e-12


@dataclass(frozen=True)
class Hit:
    t: float
    prim: int  # global primitive id
    point: np.ndarray
    normal: np.ndarray  # unit geometric normal, oriented against the ray


class Bvh:
    """Immutable after build; concurrent queries are safe."""

    def __init__(self, scene):
        v0, e1, e2, obj_ids = _gather(scene)
        self.num_prims = len(v0)
        self.prim_object = obj_ids
        self.v0, self.e1, self.e2 = v0, e1, e2
        n = np.cross(e1, e2) if len(v0) else np.zeros((0, 3))
        lens = np.linalg.norm(n, axis=1) if len(v0) else np.zeros(0)
        self.normals = n / lens[:, None] if len(v0) else n
        # plane offset c with n.x = c on the triangle's plane
        self.plane_offset = (np.einsum("ij,ij->i", self.normals, v0)
                             if len(v0) else np.zeros(0))
        # per-primitive constants of the batched image solve, one row per
        # quantity, so gathering columns by primitive id yields contiguous
        # rows: normal (3), plane offset, v0 (3), e1 (3), e2 (3) and the
        # Gram terms d11, d12, d22, den of the barycentric test
        (ax, ay, az), (bx, by, bz) = e1.T, e2.T
        d11 = ax * ax + ay * ay + az * az
        d12 = ax * bx + ay * by + az * bz
        d22 = bx * bx + by * by + bz * bz
        self.solve_table = np.vstack([
            self.normals.T, self.plane_offset, v0.T, e1.T, e2.T,
            d11, d12, d22, d11 * d22 - d12 * d12])

        self._nodes = []  # (min3, max3, a, b, is_leaf): leaf -> prims[a:b]
        self._order = np.arange(self.num_prims)
        if self.num_prims:
            self._cursor = 0  # next free slot of _order, advanced per leaf
            cent = v0 + (e1 + e2) / 3.0
            lo = np.minimum(np.minimum(v0, v0 + e1), v0 + e2)
            hi = np.maximum(np.maximum(v0, v0 + e1), v0 + e2)
            self._build(np.arange(self.num_prims), cent, lo, hi)
        # flat tables of Python floats for the scalar hot path, in traversal order
        self._tri = [(tuple(v0[i].tolist()), tuple(e1[i].tolist()), tuple(e2[i].tolist()), i)
                     for i in self._order.tolist()]
        self._flat_nodes = [(tuple(mn.tolist()), tuple(mx.tolist()), a, b, leaf)
                            for (mn, mx, a, b, leaf) in self._nodes]

    def _build(self, idx, cent, lo, hi) -> int:
        """Append the subtree over ``idx``; returns its node id."""
        node_id = len(self._nodes)
        bmin = lo[idx].min(axis=0)
        bmax = hi[idx].max(axis=0)
        if len(idx) <= LEAF_SIZE:
            start = self._cursor
            self._order[start:start + len(idx)] = np.sort(idx)
            self._cursor = start + len(idx)
            self._nodes.append((bmin, bmax, start, start + len(idx), True))
            return node_id
        c = cent[idx]
        axis = int(np.argmax(c.max(axis=0) - c.min(axis=0)))
        # stable argsort on (centroid, id) keeps the split deterministic
        order = np.argsort(c[:, axis], kind="stable")
        half = len(idx) // 2
        self._nodes.append(None)  # placeholder, patched below
        left = self._build(idx[order[:half]], cent, lo, hi)
        right = self._build(idx[order[half:]], cent, lo, hi)
        self._nodes[node_id] = (bmin, bmax, left, right, False)
        return node_id

    # -- queries -----------------------------------------------------------

    def intersect(self, origin, direction):
        """Nearest hit with t > :data:`RAY_EPS`, or None.

        ``direction`` must be unit length so t is in meters. Triangles are
        two-sided; the returned normal is flipped to face the ray origin.
        """
        res = self._trace(float(origin[0]), float(origin[1]), float(origin[2]),
                          float(direction[0]), float(direction[1]), float(direction[2]),
                          RAY_EPS, math.inf, False)
        if res is None:
            return None
        t, prim = res
        o = np.asarray(origin, dtype=np.float64)
        d = np.asarray(direction, dtype=np.float64)
        n = self.normals[prim]
        if float(n @ d) > 0.0:
            n = -n
        return Hit(t=t, prim=prim, point=o + t * d, normal=n)

    def occluded(self, p, q) -> bool:
        """True iff any primitive cuts the open segment p -> q, shrunk by :data:`RAY_EPS`."""
        dx = float(q[0]) - float(p[0])
        dy = float(q[1]) - float(p[1])
        dz = float(q[2]) - float(p[2])
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist == 0.0:
            raise ValueError("occlusion query endpoints coincide")
        inv = 1.0 / dist
        res = self._trace(float(p[0]), float(p[1]), float(p[2]),
                          dx * inv, dy * inv, dz * inv,
                          RAY_EPS, dist - RAY_EPS, True)
        return res is not None

    def _trace(self, ox, oy, oz, dx, dy, dz, t_min, t_max, any_hit):
        if not self._flat_nodes:
            return None
        inv_x = 1.0 / dx if dx != 0.0 else math.inf
        inv_y = 1.0 / dy if dy != 0.0 else math.inf
        inv_z = 1.0 / dz if dz != 0.0 else math.inf
        best_t, best_prim = t_max, -1
        stack = [0]
        nodes, tris = self._flat_nodes, self._tri
        while stack:
            mn, mx, a, b, is_leaf = nodes[stack.pop()]
            # slab test
            tx1 = (mn[0] - ox) * inv_x
            tx2 = (mx[0] - ox) * inv_x
            if tx1 > tx2:
                tx1, tx2 = tx2, tx1
            ty1 = (mn[1] - oy) * inv_y
            ty2 = (mx[1] - oy) * inv_y
            if ty1 > ty2:
                ty1, ty2 = ty2, ty1
            tz1 = (mn[2] - oz) * inv_z
            tz2 = (mx[2] - oz) * inv_z
            if tz1 > tz2:
                tz1, tz2 = tz2, tz1
            near = max(tx1, ty1, tz1, t_min)
            far = min(tx2, ty2, tz2, best_t)
            if near > far:
                continue
            if not is_leaf:
                stack.append(a)
                stack.append(b)
                continue
            for k in range(a, b):
                (v0x, v0y, v0z), (e1x, e1y, e1z), (e2x, e2y, e2z), prim = tris[k]
                px = dy * e2z - dz * e2y
                py = dz * e2x - dx * e2z
                pz = dx * e2y - dy * e2x
                det = e1x * px + e1y * py + e1z * pz
                if -_DET_EPS < det < _DET_EPS:
                    continue
                inv_det = 1.0 / det
                tx = ox - v0x
                ty = oy - v0y
                tz = oz - v0z
                u = (tx * px + ty * py + tz * pz) * inv_det
                if u < -_BARY_EPS or u > 1.0 + _BARY_EPS:
                    continue
                qx = ty * e1z - tz * e1y
                qy = tz * e1x - tx * e1z
                qz = tx * e1y - ty * e1x
                v = (dx * qx + dy * qy + dz * qz) * inv_det
                if v < -_BARY_EPS or u + v > 1.0 + _BARY_EPS:
                    continue
                t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
                if t_min < t < best_t:
                    best_t, best_prim = t, prim
                    if any_hit:
                        return best_t, best_prim
        if best_prim < 0:
            return None
        return best_t, best_prim


def _gather(scene):
    """Concatenate all object triangles into flat primitive arrays."""
    v0s, e1s, e2s, objs = [], [], [], []
    for oi, obj in enumerate(scene.objects):
        v = obj.vertices
        t = obj.triangles
        v0s.append(v[t[:, 0]])
        e1s.append(v[t[:, 1]] - v[t[:, 0]])
        e2s.append(v[t[:, 2]] - v[t[:, 0]])
        objs.append(np.full(len(t), oi))
    if not v0s:
        z = np.zeros((0, 3))
        return z, z.copy(), z.copy(), np.zeros(0, dtype=int)
    return np.vstack(v0s), np.vstack(e1s), np.vstack(e2s), np.concatenate(objs)


def build(scene) -> Bvh:
    """Build the acceleration structure for a validated scene."""
    return Bvh(scene)
