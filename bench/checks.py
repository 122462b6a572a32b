"""Oracles for the benchmark's outputs, computed apart from emtrace.

Everything here is plain numpy over the scene dictionary the benchmark
generated itself, so a fault in the program cannot also hide in its check.
Each check returns a list of error strings; an empty list means the output
passed. Path-like arguments need only the attributes ``kind``, ``seq``,
``vertices``, ``length_m``, ``delay_s``, ``tx`` and ``rx``.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
SEG_EPS = 1e-4  # meters; segment ends are skipped by this much, like secondary rays
_BARY_EPS = 1e-12
_GEOM_TOL = 1e-6
FACE_MARGIN_M = 1e-6  # a probe this close to a building face is neither inside nor out


class Triangles:
    """All scene triangles in global primitive order (objects, then storage order)."""

    def __init__(self, scene_dict: dict):
        v0s, e1s, e2s = [], [], []
        for obj in scene_dict["objects"]:
            v = np.asarray(obj["vertices_m"], dtype=np.float64).reshape(-1, 3)
            t = np.asarray(obj["triangles"], dtype=np.int64).reshape(-1, 3)
            v0s.append(v[t[:, 0]])
            e1s.append(v[t[:, 1]] - v[t[:, 0]])
            e2s.append(v[t[:, 2]] - v[t[:, 0]])
        self.v0 = np.vstack(v0s)
        self.e1 = np.vstack(e1s)
        self.e2 = np.vstack(e2s)
        n = np.cross(self.e1, self.e2)
        self.normals = n / np.linalg.norm(n, axis=1)[:, None]

    def segment_blocked(self, p, q, eps: float = SEG_EPS) -> bool:
        """Brute-force Moller-Trumbore: does any triangle cut p -> q, ends excluded?"""
        p = np.asarray(p, dtype=np.float64)
        d = np.asarray(q, dtype=np.float64) - p
        length = float(np.linalg.norm(d))
        d = d / length
        pvec = np.cross(d, self.e2)
        det = np.einsum("ij,ij->i", self.e1, pvec)
        ok = np.abs(det) > 1e-12
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = p - self.v0
        u = np.einsum("ij,ij->i", tvec, pvec) * inv
        qvec = np.cross(tvec, self.e1)
        v = (qvec @ d) * inv
        t = np.einsum("ij,ij->i", self.e2, qvec) * inv
        ok &= (u >= -_BARY_EPS) & (v >= -_BARY_EPS) & (u + v <= 1.0 + _BARY_EPS)
        ok &= (t > eps) & (t < length - eps)
        return bool(ok.any())

    def barycentric(self, prim: int, point):
        w = np.asarray(point, dtype=np.float64) - self.v0[prim]
        e1, e2 = self.e1[prim], self.e2[prim]
        d11, d12, d22 = e1 @ e1, e1 @ e2, e2 @ e2
        w1, w2 = w @ e1, w @ e2
        den = d11 * d22 - d12 * d12
        return (d22 * w1 - d12 * w2) / den, (d11 * w2 - d12 * w1) / den


def inside_box(point, boxes, margin: float = 0.0) -> bool:
    """Is ``point`` inside a box by more than ``margin`` (a negative margin widens it)?"""
    x, y, z = point
    m = margin
    return any(x0 + m < x < x1 - m and y0 + m < y < y1 - m and m < z < h - m
               for x0, y0, x1, y1, h in boxes)


def near_face(point, boxes) -> bool:
    return inside_box(point, boxes, -FACE_MARGIN_M) and \
        not inside_box(point, boxes, FACE_MARGIN_M)


def _unit(v):
    return v / np.linalg.norm(v)


# -- coverage ----------------------------------------------------------------

def cell_centers(origin, cell_size, nx, ny, height):
    """[(iy, ix, center)] in row-major order of a coverage grid."""
    return [(iy, ix, (origin[0] + (ix + 0.5) * cell_size,
                      origin[1] + (iy + 0.5) * cell_size, height))
            for iy in range(ny) for ix in range(nx)]


def check_coverage(gains, centers, tx_pos, tris: Triangles, boxes,
                   wavelength: float) -> list:
    """Zero inside buildings; at least the free-space LOS gain where LOS is clear.

    The free-space floor (lambda / 4 pi d)^2 assumes an isotropic transmit
    element and holds because coverage sums path powers incoherently. A
    probe on a building face is skipped: it is neither inside nor outside.
    """
    errors = []
    g = np.asarray(gains)
    if not np.isfinite(g).all() or (g < 0).any():
        return ["coverage gains must be finite and non-negative"]
    for iy, ix, c in centers:
        val = float(g[iy, ix])
        if near_face(c, boxes):
            continue
        if inside_box(c, boxes):
            if val != 0.0:
                errors.append(f"cell ({iy},{ix}) inside a building has gain {val!r}")
            continue
        if not tris.segment_blocked(tx_pos, c):
            d = math.dist(tx_pos, c)
            floor = (wavelength / (4.0 * math.pi * d)) ** 2
            if val < floor * (1.0 - 1e-9):
                errors.append(f"cell ({iy},{ix}) with clear LOS has gain {val!r} "
                              f"below free space {floor!r}")
    return errors


def check_subset_gain(fib_gain: float, exhaustive_gain: float, cell) -> list:
    """Fibonacci finds a subset of the exhaustive paths, so never more power."""
    if fib_gain > exhaustive_gain * (1.0 + 1e-9):
        return [f"cell {cell}: fibonacci gain {fib_gain!r} exceeds exhaustive "
                f"{exhaustive_gain!r}"]
    return []


# -- propagation paths -------------------------------------------------------

def check_paths(paths, tx_pos, rx_pos, tris: Triangles) -> list:
    """Geometry of every path of one link, plus LOS presence.

    Each interaction point lies on its triangle and obeys the law of
    reflection; no segment crosses any triangle; length and delay follow
    from the vertices.
    """
    errors = []
    tx_pos = np.asarray(tx_pos, dtype=np.float64)
    rx_pos = np.asarray(rx_pos, dtype=np.float64)
    los_clear = not tris.segment_blocked(tx_pos, rx_pos)
    n_los = sum(1 for p in paths if p.kind == "los")
    if n_los != (1 if los_clear else 0):
        errors.append(f"{n_los} LOS paths where brute force says LOS is "
                      f"{'clear' if los_clear else 'blocked'}")
    for p in paths:
        tag = f"path {p.kind} {tuple(p.seq)}"
        verts = np.asarray(p.vertices, dtype=np.float64)
        if len(verts) != len(p.seq) + 2:
            errors.append(f"{tag}: {len(verts)} vertices for order {len(p.seq)}")
            continue
        if (np.abs(verts[0] - tx_pos).max() > 1e-9
                or np.abs(verts[-1] - rx_pos).max() > 1e-9):
            errors.append(f"{tag}: does not run from tx to rx")
        for k, prim in enumerate(p.seq):
            point = verts[k + 1]
            u, v = tris.barycentric(prim, point)
            off_plane = abs(float((point - tris.v0[prim]) @ tris.normals[prim]))
            if u < -_GEOM_TOL or v < -_GEOM_TOL or u + v > 1.0 + _GEOM_TOL \
                    or off_plane > _GEOM_TOL:
                errors.append(f"{tag}: vertex {k + 1} is not on triangle {prim}")
            d_in = _unit(verts[k + 1] - verts[k])
            d_out = _unit(verts[k + 2] - verts[k + 1])
            n = tris.normals[prim]
            mirrored = d_in - 2.0 * float(d_in @ n) * n
            if np.abs(d_out - mirrored).max() > _GEOM_TOL:
                errors.append(f"{tag}: vertex {k + 1} breaks the law of reflection")
        for a, b in zip(verts[:-1], verts[1:]):
            if tris.segment_blocked(a, b):
                errors.append(f"{tag}: a segment crosses a triangle")
                break
        length = float(np.linalg.norm(np.diff(verts, axis=0), axis=1).sum())
        if abs(p.length_m - length) > 1e-9 * length:
            errors.append(f"{tag}: length {p.length_m!r} but vertices give {length!r}")
        if abs(p.delay_s - length / SPEED_OF_LIGHT) > 1e-9 * p.delay_s:
            errors.append(f"{tag}: delay {p.delay_s!r} is not length / c")
    return errors


def sorted_link_paths(paths, tx_name: str, rx_name: str) -> list:
    """Paths of one link in CIR slot order: by delay, then kind, then sequence."""
    link = [p for p in paths if p.tx == tx_name and p.rx == rx_name]
    return sorted(link, key=lambda p: (p.delay_s, p.kind, tuple(p.seq)))


def check_cir_doppler(a, tau, link_paths, r: int, t: int, v_tx, v_rx,
                      frequency_hz: float, sample_times) -> list:
    """One link's CIR slots against its paths: delays, constant |a|, Doppler phase.

    ``a`` is the CIR [rx, rx_ant, tx, tx_ant, path, time]. The Doppler shift
    of a path is f_D = (f_c / c) (k_dep . v_tx - k_arr . v_rx), with the
    directions taken from the path's own vertices.
    """
    errors = []
    n_slots = a.shape[4]
    if len(link_paths) > n_slots:
        return [f"link ({r},{t}): {len(link_paths)} paths but {n_slots} CIR slots"]
    times = np.asarray(sample_times, dtype=np.float64)
    for p_idx in range(n_slots):
        block = a[r, :, t, :, p_idx, :]  # [rx_ant, tx_ant, time]
        if p_idx >= len(link_paths):
            if np.any(block != 0) or tau[r, t, p_idx] != 0.0:
                errors.append(f"link ({r},{t}) slot {p_idx}: padding is not zero")
            continue
        path = link_paths[p_idx]
        if abs(tau[r, t, p_idx] - path.delay_s) > 1e-15:
            errors.append(f"link ({r},{t}) slot {p_idx}: tau {tau[r, t, p_idx]!r} "
                          f"is not the path delay {path.delay_s!r}")
        verts = np.asarray(path.vertices, dtype=np.float64)
        k_dep = _unit(verts[1] - verts[0])
        k_arr = _unit(verts[-1] - verts[-2])
        f_d = frequency_hz / SPEED_OF_LIGHT * (k_dep @ np.asarray(v_tx)
                                               - k_arr @ np.asarray(v_rx))
        expected = block[:, :, :1] * np.exp(2j * math.pi * f_d * times)[None, None, :]
        mag0 = np.abs(block[:, :, :1])
        if np.abs(np.abs(block) - mag0).max() > 1e-9 * mag0.max():
            errors.append(f"link ({r},{t}) slot {p_idx}: |a| changes over time")
        if np.abs(block - expected).max() > 1e-9 * mag0.max():
            errors.append(f"link ({r},{t}) slot {p_idx}: phase slope is not "
                          f"the Doppler shift {float(f_d)!r} Hz")
    return errors


def subcarrier_grid(num_subcarriers: int, spacing: float) -> np.ndarray:
    return (np.arange(num_subcarriers) - (num_subcarriers - 1) / 2.0) * spacing


def check_ofdm(h, a, tau, num_subcarriers: int, spacing: float,
               sample_k) -> list:
    """H at the sampled subcarriers equals a direct DFT of the CIR taps.

    ``h`` is [rx * rx_ant, tx * tx_ant, subcarrier, time]; rows and columns
    run over devices first, then their antenna elements.
    """
    n_rx, n_rx_el, n_tx, n_tx_el, n_path, n_t = a.shape
    if h.shape != (n_rx * n_rx_el, n_tx * n_tx_el, num_subcarriers, n_t):
        return [f"OFDM response has shape {h.shape}"]
    f = subcarrier_grid(num_subcarriers, spacing)
    errors = []
    for r in range(n_rx):
        for t in range(n_tx):
            for k in sample_k:
                own = np.zeros((n_rx_el, n_tx_el, n_t), dtype=np.complex128)
                for p in range(n_path):
                    own += a[r, :, t, :, p, :] * np.exp(-2j * math.pi * f[k] * tau[r, t, p])
                got = h[r * n_rx_el:(r + 1) * n_rx_el, t * n_tx_el:(t + 1) * n_tx_el, k, :]
                scale = np.abs(a[r, :, t, :, :, :]).sum() + 1e-300
                if np.abs(got - own).max() > 1e-9 * scale:
                    errors.append(f"link ({r},{t}) subcarrier {k}: H differs "
                                  "from the DFT of the CIR")
    return errors


# -- calibration -------------------------------------------------------------

def check_calibration(final_values: dict, losses, planted: dict,
                      untouched: dict, eps_tol: float) -> list:
    """Learned eps_r near the planted truth, monotone loss, untouched leaves exact.

    ``planted`` maps material name to its true eps_r; ``untouched`` maps
    leaf names to the values they must keep bit for bit.
    """
    errors = []
    for name, eps in planted.items():
        got = final_values.get(f"mat:{name}:eps_r")
        if got is None or not abs(got - eps) <= eps_tol:
            errors.append(f"{name}: learned eps_r {got!r}, planted {eps!r}")
    for i in range(1, len(losses)):
        if not losses[i] <= losses[i - 1]:
            errors.append(f"loss rose at iteration {i}: {losses[i - 1]!r} -> {losses[i]!r}")
            break
    for leaf, value in untouched.items():
        if final_values.get(leaf) != value:
            errors.append(f"untouched {leaf} moved to {final_values.get(leaf)!r}")
    return errors
