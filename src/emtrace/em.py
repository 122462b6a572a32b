"""Polarized channel coefficients along traced paths.

Converts path geometry into complex gains: antenna pattern evaluation in
the rotated device frame, Fresnel reflection in the per-segment TE/TM basis
with explicit basis rotations between segments, free-space spreading,
plane-wave array phase shifts, and Doppler time evolution.

Every path coefficient of the library comes from :class:`PathKernel`: it
freezes all of a path's coefficient but the Fresnel coefficients (and, with
world-axis tx fields, the tx field), and pads shorter paths to one chain
of transfer matrices, so an evaluation over all paths and interaction
counts is one numpy pass. :func:`transfer` is the scalar reference it is
tested against: on scalar-generic tuples it yields plain floats, or
tape-recorded scalars when materials, orientations or positions are leaves.

Conventions (frozen project-wide): time dependence e^{+j 2 pi f t}, hence
propagation phase e^{-j 2 pi f_c tau}; the reflected parallel basis vector
is e_perp x k_out, which makes r_TM equal r_TE at normal incidence.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .autodiff import (DiffComplex, DiffScalar, _ccoerce, cos, csqrt_posreal, exp,
                       minimum, sin, sqrt)
from .geometry import (SPEED_OF_LIGHT, mat_t_vec, mat_vec, rotation_entries,
                       rotation_from_ypr, spherical_angles, t_cross, t_dot, t_norm,
                       t_normalize, t_scale, t_sub)
from .scene import material_eval
from .tracer import _solve_paths, solve_points

TWO_PI = 2.0 * math.pi
_WORLD_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_LN10_OVER_20 = math.log(10.0) / 20.0
# Fresnel cosines are raised to this, the root of the smallest normal float,
# so that |cos + w|^2 cannot underflow when eta is 1 and w is 0; at such
# grazing incidence the coefficients have long reached their limits
_COS_FLOOR = math.sqrt(sys.float_info.min)


class EmError(ValueError):
    pass


# -- antenna patterns --------------------------------------------------------

def _pattern_iso(theta, phi):
    """Isotropic: unit gain, theta-polarized."""
    return 1.0, 0.0


def _pattern_dipole(theta, phi):
    """Half-wave dipole along the local z axis; peak gain 1.643 (2.15 dBi)."""
    s = sin(theta)
    if (s.value if isinstance(s, DiffScalar) else s) < 1e-9:
        return 0.0, 0.0
    return sqrt(1.643) * cos(1.5707963267948966 * cos(theta)) / s, 0.0


def _pattern_tr38901(theta, phi):
    """3GPP TR 38.901 single element: 8 dBi peak, 65 deg 3 dB beamwidths.

    Vertical and horizontal cuts are quadratic in degrees, each floored at
    30 dB attenuation, as is their sum.
    """
    deg = 180.0 / math.pi
    tilt = theta * deg - 90.0
    pan = phi * deg
    att_v = minimum(12.0 * (tilt / 65.0) * (tilt / 65.0), 30.0)
    att_h = minimum(12.0 * (pan / 65.0) * (pan / 65.0), 30.0)
    gain_db = 8.0 - minimum(att_v + att_h, 30.0)
    return exp(gain_db * _LN10_OVER_20), 0.0


def _probe_theta(theta, phi):
    return 1.0, 0.0


def _probe_phi(theta, phi):
    return 0.0, 1.0


_PATTERNS = {"iso": _pattern_iso, "dipole": _pattern_dipole,
             "tr38901": _pattern_tr38901,
             # internal coverage probes: orthonormal polarization basis of
             # the arrival direction, so their gains sum to the full
             # transverse field power
             "_probe_theta": _probe_theta, "_probe_phi": _probe_phi}


def get_pattern(name: str):
    try:
        return _PATTERNS[name]
    except KeyError:
        raise EmError(f"unknown antenna pattern {name!r}") from None


def element_field(pattern_name: str, slant: float, rotation_rows, k_world):
    """Polarized field vector radiated toward ``k_world``, in world frame.

    ``slant`` rotates the element about its boresight (+x body axis); this
    is how H/VH/cross polarizations are realized from the base pattern.
    Returns a real scalar-like 3-tuple.
    """
    pattern = get_pattern(pattern_name)
    k_body = mat_t_vec(rotation_rows, k_world)
    cz, sz = math.cos(slant), math.sin(slant)
    k_el = (k_body[0], cz * k_body[1] + sz * k_body[2],
            -sz * k_body[1] + cz * k_body[2])
    theta, phi = spherical_angles(k_el)
    e_th, e_ph = pattern(theta, phi)
    ct, st = cos(theta), sin(theta)
    cp, sp = cos(phi), sin(phi)
    e_el = (e_th * (ct * cp) + e_ph * (-sp),
            e_th * (ct * sp) + e_ph * cp,
            e_th * (-st))
    e_body = (e_el[0], cz * e_el[1] - sz * e_el[2], sz * e_el[1] + cz * e_el[2])
    return mat_vec(rotation_rows, e_body)


# -- reflection --------------------------------------------------------------

def fresnel(eta, cos_theta_i):
    """(r_TE, r_TM) for reflection off an air-medium interface.

    ``eta`` is the complex relative permittivity (Im <= 0 for lossy media),
    ``cos_theta_i`` the cosine of the incidence angle from the normal.
    The square root takes the Re >= 0 branch so transmitted fields decay
    into the medium. The parallel coefficient is measured against the
    e_perp x k_out basis: r_TM(0) == r_TE(0) == (1 - sqrt(eta))/(1 + sqrt(eta)).
    """
    eta = _ccoerce(eta)
    if cos_theta_i < _COS_FLOOR:
        cos_theta_i = _COS_FLOOR
    sin2 = 1.0 - cos_theta_i * cos_theta_i
    w = csqrt_posreal(eta - sin2)
    r_te = (cos_theta_i - w) / (cos_theta_i + w)
    ec = eta * cos_theta_i
    r_tm = (w - ec) / (w + ec)
    return r_te, r_tm


def _perp_axis(k_in, n):
    """Unit TE axis for an interaction; deterministic at normal incidence."""
    e = t_cross(k_in, n)
    n2 = t_dot(e, e)
    n2v = n2.value if isinstance(n2, DiffScalar) else n2
    if n2v < 1e-16:
        # normal incidence: any transverse axis works; pick the world axis
        # least aligned with the ray for stability
        kv = [abs(k_in[i].value if isinstance(k_in[i], DiffScalar) else k_in[i])
              for i in range(3)]
        axis = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))[kv.index(min(kv))]
        e = t_cross(k_in, axis)
    return t_normalize(e)


def reflect_field(field, k_in, k_out, normal, r_te, r_tm):
    """Transport a complex field 3-tuple through one specular reflection."""
    e_perp = _perp_axis(k_in, normal)
    e_par_i = t_cross(k_in, e_perp)
    e_par_r = t_cross(e_perp, k_out)
    f_perp = field[0] * e_perp[0] + field[1] * e_perp[1] + field[2] * e_perp[2]
    f_par = field[0] * e_par_i[0] + field[1] * e_par_i[1] + field[2] * e_par_i[2]
    g_perp = r_te * f_perp
    g_par = r_tm * f_par
    return (g_perp * e_perp[0] + g_par * e_par_r[0],
            g_perp * e_perp[1] + g_par * e_par_r[1],
            g_perp * e_perp[2] + g_par * e_par_r[2])


def synthetic_phase(direction, offset, wavelength) -> DiffComplex:
    """Plane-wave phasor e^{+j 2 pi (direction . offset) / lambda}.

    Call with the departure direction for tx elements and with the negated
    arrival direction for rx elements, so an element displaced toward the
    other end of the link leads in phase.
    """
    return DiffComplex.expj(TWO_PI * t_dot(direction, offset) / wavelength)


# -- evaluation context ------------------------------------------------------

class EvalContext:
    """Per-evaluation parameter values, possibly wired to tape leaves.

    Holds (eps_r, sigma) per material and orientation/position per device;
    anything not overridden falls back to the scene's stored floats. All
    derived quantities (eta, rotation rows) are cached per context.
    """

    def __init__(self, scene, material_values=None, orientations=None, positions=None):
        self.scene = scene
        self.material_values = material_values or {}
        self.orientations = orientations or {}
        self.positions = positions or {}
        self._eta_cache = {}
        self._rot_cache = {}

    def eta(self, material_name: str) -> DiffComplex:
        if material_name not in self._eta_cache:
            m = self.scene.materials[material_name]
            over = self.material_values.get(material_name)
            ev = material_eval(m, self.scene.frequency_hz,
                               eps_override=over[0] if over else None,
                               sigma_override=over[1] if over else None)
            self._eta_cache[material_name] = ev.eta
        return self._eta_cache[material_name]

    def rotation_rows(self, device):
        if device.name not in self._rot_cache:
            ypr = self.orientations.get(device.name, device.orientation)
            self._rot_cache[device.name] = rotation_entries(*ypr)
        return self._rot_cache[device.name]

    def position(self, device):
        p = self.positions.get(device.name)
        if p is not None:
            return p
        return (float(device.position[0]), float(device.position[1]),
                float(device.position[2]))


# -- per-path transfer -------------------------------------------------------

@dataclass
class PathGeometry:
    """Scalar-generic geometry of one path, ready for field transport."""

    seg_dirs: list
    length: object
    delay: object
    k_dep: tuple
    k_arr: tuple
    normals: list  # float 3-vectors; plane orientation does not move with devices
    cos_incidence: list


def geometry_from_path(path) -> PathGeometry:
    verts = path.vertices.tolist()
    dirs = [t_normalize(t_sub(b, a)) for a, b in zip(verts[:-1], verts[1:])]
    return PathGeometry(
        seg_dirs=dirs, length=path.length_m, delay=path.delay_s,
        k_dep=dirs[0], k_arr=dirs[-1], normals=path.normals.tolist(),
        cos_incidence=list(path.cos_incidence),
    )


def geometry_for_positions(path, tx_pos, rx_pos) -> PathGeometry:
    """Re-derive the path geometry for moved endpoints (same topology).

    Interaction points are recomputed by closed-form mirroring across the
    frozen primitive planes, so every output is a smooth function of the
    endpoint coordinates. Validity is not re-checked.
    """
    normals = [tuple(float(x) for x in n) for n in path.normals]
    planes = [(n, t_dot(n, tuple(float(x) for x in path.vertices[k + 1])))
              for k, n in enumerate(normals)]
    points, _ = solve_points(tx_pos, rx_pos, planes)
    if points is None:
        raise EmError("path geometry degenerated while differentiating positions")
    verts = [tx_pos] + points + [rx_pos]
    dirs = [t_normalize(t_sub(b, a)) for a, b in zip(verts[:-1], verts[1:])]
    length = 0.0
    for a, b in zip(verts[:-1], verts[1:]):
        length = length + t_norm(t_sub(b, a))
    cosines = [-t_dot(dirs[k], normals[k]) for k in range(len(normals))]
    return PathGeometry(
        seg_dirs=dirs, length=length, delay=length / SPEED_OF_LIGHT,
        k_dep=dirs[0], k_arr=dirs[-1],
        normals=normals, cos_incidence=cosines,
    )


def transfer(ctx: EvalContext, geom: PathGeometry, materials,
             tx_dev, rx_dev, tx_pattern: str, rx_pattern: str,
             tx_slant: float, rx_slant: float) -> DiffComplex:
    """Complex gain of one path for one antenna-element pair.

    a = (lambda / 4 pi d) * <rx field | product of reflections | tx field>
        * e^{-j 2 pi f_c tau}
    """
    scene = ctx.scene
    field = element_field(tx_pattern, tx_slant, ctx.rotation_rows(tx_dev), geom.k_dep)
    field = (DiffComplex(field[0]), DiffComplex(field[1]), DiffComplex(field[2]))
    for k, mat_name in enumerate(materials):
        r_te, r_tm = fresnel(ctx.eta(mat_name), geom.cos_incidence[k])
        field = reflect_field(field, geom.seg_dirs[k], geom.seg_dirs[k + 1],
                              geom.normals[k], r_te, r_tm)
    rx_field = element_field(rx_pattern, rx_slant, ctx.rotation_rows(rx_dev),
                             t_scale(geom.k_arr, -1.0))
    coupling = (field[0] * rx_field[0] + field[1] * rx_field[1]
                + field[2] * rx_field[2])
    amp = scene.wavelength / (2.0 * TWO_PI * geom.length)
    phase = -TWO_PI * scene.frequency_hz * geom.delay
    return coupling * amp * DiffComplex.expj(phase)


def path_materials(scene, bvh, path) -> tuple:
    """Material name per interaction of a path."""
    return tuple(scene.objects[bvh.prim_object[p]].material for p in path.seq)


# -- frozen-path kernel -------------------------------------------------------

def _fresnel_arrays(eta, cos_theta_i):
    """(r_TE, r_TM, w) of :func:`fresnel`, elementwise over numpy arrays.

    The root is numpy's, which gives the bits of the cmath root in
    csqrt_posreal: r_TE and r_TM subtract nearly equal numbers when eta is
    close to 1, so a root rounded differently would be amplified there.
    """
    cos_theta_i = np.maximum(cos_theta_i, _COS_FLOOR)
    # + 0j puts an imaginary part of -0.0 on the +j side of the cut, as there
    w = np.sqrt(eta - (1.0 - cos_theta_i * cos_theta_i) + 0j)
    ec = eta * cos_theta_i
    return (cos_theta_i - w) / (cos_theta_i + w), (w - ec) / (w + ec), w


class PathKernel:
    """Coefficients of a frozen path set as a numpy function of material etas.

    Neither materials nor orientations move geometry, so in the
    transfer-matrix form of a path coefficient (Hoydis et al., arXiv
    2303.11103)

        a = c * u_rx^T D_K J_{K-1} D_{K-1} ... J_1 D_1 u_tx,
        c = lambda / (4 pi d) * e^{-j 2 pi f tau},  D_k = diag(r_TE, r_TM),

    everything but the Fresnel coefficients is a constant: the element
    fields projected onto the first and last TE/TM bases, the real 2x2
    basis changes J and the factor c. They are built once, in floats, from
    the helpers :func:`transfer` uses; an evaluation is one vectorised
    :func:`fresnel` over all interactions plus one batched chain product.
    Paths with interactions form one chain of the kernel's largest
    interaction count K: a shorter path is padded at its end with J = I
    and r_TE = r_TM = 1 of derivative 0, which multiply exactly, so its
    gain keeps its bits. Interactions are stored [K, P], interaction k of
    every path together. The chain's columns (pair q = rx_el * n_tx +
    tx_el, path) are pair-major, so every step is one flat elementwise
    numpy operation. LOS gains c * f_rx . f_tx are stored whole.

    ``links`` holds (tx device, rx device, paths); ``tx_elements`` /
    ``rx_elements`` list (pattern, slant) pairs at the devices' stored
    orientations. Gains are [rx_el, tx_el, path], paths in link order. With
    ``tx_elements=None`` the tx fields are the world axes: gains
    [rx_el, 3, path] are then the frozen vector w with a = w . f_tx, so a
    transmitter may turn without a new kernel.
    """

    def __init__(self, scene, bvh, links, tx_elements, rx_elements):
        ctx, lam, freq = EvalContext(scene), scene.wavelength, scene.frequency_hz
        mat_index = {}  # material name -> position in eta
        los = {"index": [], "gain": []}
        # per path with interactions: its chain constants, cosines and materials
        rows = {k: [] for k in ("index", "c", "u_tx", "u_rx", "j", "cos", "mat")}
        self.k_dep = []  # per path, the direction tx fields are evaluated in
        for tx_dev, rx_dev, paths in links:
            rot_tx, rot_rx = ctx.rotation_rows(tx_dev), ctx.rotation_rows(rx_dev)
            for path in paths:
                n = len(self.k_dep)
                geom = geometry_from_path(path)
                self.k_dep.append(geom.k_dep)
                f_tx = _WORLD_AXES if tx_elements is None else [
                    element_field(*e, rot_tx, geom.k_dep) for e in tx_elements]
                k_back = t_scale(geom.k_arr, -1.0)
                f_rx = [element_field(*e, rot_rx, k_back) for e in rx_elements]
                c = (lam / (2.0 * TWO_PI * geom.length)
                     * DiffComplex.expj(-TWO_PI * freq * geom.delay).to_complex())
                mats = [mat_index.setdefault(m, len(mat_index))
                        for m in path_materials(scene, bvh, path)]
                if not mats:
                    los["index"].append(n)
                    los["gain"].append([[c * t_dot(ft, fr) for ft in f_tx] for fr in f_rx])
                    continue
                # (TE, TM in, TM out) axes of each interaction
                axes = []
                for k in range(len(mats)):
                    e_perp = _perp_axis(geom.seg_dirs[k], geom.normals[k])
                    axes.append((e_perp, t_cross(geom.seg_dirs[k], e_perp),
                                 t_cross(e_perp, geom.seg_dirs[k + 1])))
                rows["index"].append(n)
                rows["c"].append(c)
                rows["u_tx"].append([(t_dot(f, axes[0][0]), t_dot(f, axes[0][1])) for f in f_tx])
                rows["u_rx"].append([(t_dot(f, axes[-1][0]), t_dot(f, axes[-1][2]))
                                     for f in f_rx])
                rows["j"].append([((t_dot(a[0], b[0]), t_dot(a[2], b[0])),
                                   (t_dot(a[0], b[1]), t_dot(a[2], b[1])))
                                  for a, b in zip(axes[:-1], axes[1:])])
                rows["cos"].append(geom.cos_incidence)
                rows["mat"].append(mats)
        n_tx, n_rx = 3 if tx_elements is None else len(tx_elements), len(rx_elements)
        self.materials = sorted(mat_index, key=mat_index.get)
        self.num_paths = len(self.k_dep)
        self.shape = (n_rx, n_tx)
        n_pairs = n_rx * n_tx
        pairs = np.arange(n_pairs)[:, None] * self.num_paths  # flat offset per pair
        self.los_cols = (pairs + np.array(los["index"], dtype=np.int64)).ravel()
        self.los_gain = np.array(los["gain"], dtype=np.complex128).reshape(
            -1, n_pairs).T.ravel()
        p, order = len(rows["index"]), max(map(len, rows["mat"]), default=1)
        # interactions stored [K, P], interaction k of every path together; a
        # padded slot evaluates material 0 at normal incidence, then is reset
        self.mat, self.cos = (
            np.array(list(zip_longest(*rows[k], fillvalue=fill)), dtype=dtype).reshape(order, p)
            for k, fill, dtype in (("mat", 0, np.int64), ("cos", 1.0, np.float64)))
        self.pad = np.flatnonzero(np.arange(order)[:, None] >= [len(m) for m in rows["mat"]])
        eye = ((1.0, 0.0), (0.0, 1.0))
        j = np.array([js + [eye] * (order - 1 - len(js)) for js in rows["j"]], dtype=np.float64)
        self.j = np.tile(j.reshape(p, order - 1, 2, 2).transpose(1, 2, 3, 0), n_pairs)
        self.u_tx, self.u_rx = (
            np.broadcast_to(np.reshape(rows[k], shape), (p, n_rx, n_tx, 2))
            .transpose(3, 1, 2, 0).reshape(2, -1)
            for k, shape in (("u_tx", (p, 1, n_tx, 2)), ("u_rx", (p, n_rx, 1, 2))))
        self.c = np.tile(np.array(rows["c"], dtype=np.complex128), n_pairs)
        self.cols = (pairs + np.array(rows["index"], dtype=np.int64)).ravel()
        # column -> path; None for one element pair, whose columns are the paths
        self.path = np.tile(np.arange(p), n_pairs) if n_pairs > 1 else None

    def etas(self, ctx: EvalContext) -> np.ndarray:
        """Complex eta per kernel material, from the (float) values in ``ctx``."""
        return np.array([ctx.eta(m).to_complex() for m in self.materials],
                        dtype=np.complex128)

    def _columns(self, r, fill):
        """Per-interaction values r [K, P], ``fill`` written at padding, as columns [K, Q]."""
        if self.pad.size:  # an empty reset costs about 1% of a depth-1 calibrate job
            r.flat[self.pad] = fill
        return r if self.path is None else r[:, self.path]

    def _inputs(self, te, tm):
        """The (TE, TM) field entering each D_k, [Q] each."""
        ins = [(self.u_tx[0], self.u_tx[1])]
        for k, j in enumerate(self.j, 1):
            v_te, v_tm = ins[-1][0] * te[k - 1], ins[-1][1] * tm[k - 1]
            ins.append((j[0, 0] * v_te + j[0, 1] * v_tm,
                        j[1, 0] * v_te + j[1, 1] * v_tm))
        return ins

    def gains(self, eta) -> np.ndarray:
        """Complex gains [rx_el, tx_el, path] at material etas ``eta``."""
        r_te, r_tm, _ = _fresnel_arrays(eta[self.mat], self.cos)
        te, tm = self._columns(r_te, 1.0), self._columns(r_tm, 1.0)
        v_te, v_tm = self._inputs(te, tm)[-1]
        a = np.empty(self.shape[0] * self.shape[1] * self.num_paths, dtype=np.complex128)
        a[self.los_cols] = self.los_gain
        a[self.cols] = self.c * (self.u_rx[0] * (v_te * te[-1]) + self.u_rx[1] * (v_tm * tm[-1]))
        return a.reshape(self.shape + (self.num_paths,))

    def vjp(self, eta, grad_a) -> np.ndarray:
        """Pull a cotangent on the gains back onto the etas.

        ``grad_a`` has the gains' shape (or [path], for one element pair).
        Both cotangents are dL/dRe + j dL/dIm of a real loss L, so the result
        is sum grad_a * conj(d a / d eta_m) per material m.
        """
        grad_a = np.reshape(grad_a, -1)
        eta_i = eta[self.mat]
        r_te, r_tm, w = _fresnel_arrays(eta_i, self.cos)
        c = self.cos
        d_te = -c / (w * (c + w) ** 2)
        # w * w, not eta - sin^2: differentiate the root as computed
        d_tm = c * (eta_i - 2.0 * w * w) / (w * (w + eta_i * c) ** 2)
        te, tm = self._columns(r_te, 1.0), self._columns(r_tm, 1.0)
        dte, dtm = self._columns(d_te, 0.0), self._columns(d_tm, 0.0)
        ins = self._inputs(te, tm)
        l_te, l_tm = self.c * self.u_rx[0], self.c * self.u_rx[1]  # d a / d (D_K output)
        da = np.empty(te.shape, dtype=np.complex128)
        for k in range(len(ins) - 1, -1, -1):
            da[k] = l_te * ins[k][0] * dte[k] + l_tm * ins[k][1] * dtm[k]
            l_te, l_tm = l_te * te[k], l_tm * tm[k]
            if k:
                j = self.j[k - 1]
                l_te, l_tm = (j[0, 0] * l_te + j[1, 0] * l_tm,
                              j[0, 1] * l_te + j[1, 1] * l_tm)
        da = grad_a[self.cols] * np.conj(da)
        if self.path is not None:  # sum over the element pairs of each path
            da = da.reshape(len(da), self.shape[0] * self.shape[1], -1).sum(axis=1)
        pull, mat, m = da.ravel(), self.mat.ravel(), len(self.materials)
        return np.bincount(mat, pull.real, m) + 1j * np.bincount(mat, pull.imag, m)


# -- channel gains for full arrays -------------------------------------------

@dataclass
class PathGain:
    """Per-element-pair complex gains of one logical path."""

    tx: str
    rx: str
    kind: str
    seq: tuple
    delay: float
    a: np.ndarray  # [rx_el, tx_el, time]
    k_dep: np.ndarray  # [rx_el, tx_el, 3]
    k_arr: np.ndarray


@dataclass
class ChannelGains:
    scene: object
    entries: list
    sample_times: np.ndarray  # [T], seconds


def _fraunhofer_check(scene, tx_dev, rx_dev, offsets_tx, offsets_rx, length):
    aperture = 0.0
    for off in (offsets_tx, offsets_rx):
        if len(off) > 1:
            span = np.linalg.norm(off.max(axis=0) - off.min(axis=0))
            aperture = max(aperture, float(span))
    if aperture > 0.0:
        fraunhofer = 2.0 * aperture * aperture / scene.wavelength
        if length < fraunhofer:
            warnings.warn(
                f"path {tx_dev.name}->{rx_dev.name} at {length:.1f} m is inside "
                f"the Fraunhofer distance {fraunhofer:.1f} m; the plane-wave "
                "synthetic-array assumption degrades here", stacklevel=2)


def compute_gains(scene, bvh, pathset) -> ChannelGains:
    """Complex gains for every path and antenna element pair, link by link.

    Gains use the devices the links were traced with. With
    ``scene.synthetic_array`` the per-element response is the center
    path's gain per distinct (rx slant, tx slant) times plane-wave phase
    shifts; otherwise every element pair's path is re-solved, LOS and
    reflections alike, in one batched solve per path. The coefficients come
    from one :class:`PathKernel` per link (synthetic) or per path (explicit).
    """
    arrays = (scene.tx_array, scene.rx_array)
    (off_tx, slants_tx), (off_rx, slants_rx) = (a.element_layout(scene.wavelength) for a in arrays)
    # element i evaluates its array's distinct slant of_*[i]
    (st, of_tx), (sr, of_rx) = (np.unique(s, return_inverse=True) for s in (slants_tx, slants_rx))
    elements = [[(arr.pattern, s) for s in u.tolist()] for arr, u in zip(arrays, (st, sr))]
    entries = []
    for tx_dev, rx_dev, paths in pathset.links:
        off_tx_w = off_tx @ rotation_from_ypr(*tx_dev.orientation).T
        off_rx_w = off_rx @ rotation_from_ypr(*rx_dev.orientation).T
        link = (tx_dev, rx_dev, elements, off_tx_w, of_tx, off_rx_w, of_rx)
        if paths and scene.synthetic_array:
            _fraunhofer_check(scene, tx_dev, rx_dev, off_tx_w, off_rx_w,
                              min(p.length_m for p in paths))
            entries += _gain_synthetic(scene, bvh, paths, *link)
        elif paths:
            entries += [_gain_explicit(scene, bvh, path, *link) for path in paths]
    return ChannelGains(scene=scene, entries=entries, sample_times=np.zeros(1))


def _gain_synthetic(scene, bvh, paths, tx_dev, rx_dev, elements,
                    off_tx_w, of_tx, off_rx_w, of_rx):
    """One kernel over a link's paths, then the elements' plane-wave phases."""
    kernel = PathKernel(scene, bvh, [(tx_dev, rx_dev, paths)], *elements)
    base = kernel.gains(kernel.etas(EvalContext(scene)))[of_rx][:, of_tx]
    k_dep = np.array([p.k_dep for p in paths])
    k_arr = np.array([p.k_arr for p in paths])
    ph_tx = np.exp(1j * TWO_PI * (off_tx_w @ k_dep.T) / scene.wavelength)
    ph_rx = np.exp(1j * TWO_PI * (off_rx_w @ -k_arr.T) / scene.wavelength)
    a = base * ph_rx[:, None, :] * ph_tx[None, :, :]  # [rx_el, tx_el, path]
    shape = a.shape[:2]
    return [PathGain(tx=tx_dev.name, rx=rx_dev.name, kind=p.kind, seq=p.seq,
                     delay=p.delay_s, a=a[:, :, q, None],
                     k_dep=np.broadcast_to(p.k_dep, shape + (3,)),
                     k_arr=np.broadcast_to(p.k_arr, shape + (3,)))
            for q, p in enumerate(paths)]


def _gain_explicit(scene, bvh, path, tx_dev, rx_dev, elements,
                   off_tx_w, of_tx, off_rx_w, of_rx):
    """Element pairs re-solved as the columns of one solve; blocked pairs stay 0."""
    n_rx, n_tx = len(off_rx_w), len(off_tx_w)
    a = np.zeros((n_rx, n_tx), dtype=np.complex128)
    k_dep, k_arr = np.zeros((n_rx, n_tx, 3)), np.zeros((n_rx, n_tx, 3))
    # column i * n_tx + j pairs rx element i with tx element j
    tx_cols = np.tile(tx_dev.position + off_tx_w, (n_rx, 1)).T
    rx_cols = np.repeat(rx_dev.position + off_rx_w, n_tx, axis=0).T
    seqs = np.tile(np.array(path.seq, dtype=np.int32).reshape(-1, 1), n_rx * n_tx)
    solved = list(_solve_paths(tx_dev.name, rx_dev.name, tx_cols, rx_cols, seqs, bvh))
    subs = [sub for _, sub in solved]
    i, j = np.divmod(np.array([col for col, _ in solved], dtype=np.int64), n_tx)
    if subs:
        kernel = PathKernel(scene, bvh, [(tx_dev, rx_dev, subs)], *elements)
        a[i, j] = kernel.gains(kernel.etas(EvalContext(scene)))[
            of_rx[i], of_tx[j], np.arange(len(subs))]
        k_dep[i, j] = [sub.k_dep for sub in subs]
        k_arr[i, j] = [sub.k_arr for sub in subs]
    delay = float(np.mean([sub.delay_s for sub in subs])) if subs else path.delay_s
    return PathGain(tx=tx_dev.name, rx=rx_dev.name, kind=path.kind, seq=path.seq,
                    delay=delay, a=a[:, :, None], k_dep=k_dep, k_arr=k_arr)


def apply_doppler(gains: ChannelGains, sampling_frequency: float,
                  num_time_steps: int, tx_velocities=None,
                  rx_velocities=None) -> ChannelGains:
    """Time-evolve gains: a_i(t_n) = a_i e^{j 2 pi f_D_i t_n}.

    f_D = (f_c/c) * (k_dep . v_tx + (-k_arr) . v_rx). Velocities are world
    frame: one 3-vector applied to every device of that side, or ``None``,
    the default, which takes each device's own scene velocity. Doppler is
    phase-only: |a| is constant in n.
    """
    if num_time_steps < 1 or not 0.0 < sampling_frequency < math.inf:
        raise EmError("need num_time_steps >= 1 and a positive, finite sampling frequency")
    if gains.entries and gains.entries[0].a.shape[-1] != 1:
        raise EmError("doppler already applied to these gains")

    def vel_for(side, name):
        velocity = gains.scene.device(name).velocity if side is None else side
        return np.asarray(velocity, dtype=np.float64)

    t = np.arange(num_time_steps) / sampling_frequency
    f_over_c = gains.scene.frequency_hz / SPEED_OF_LIGHT
    out = []
    for e in gains.entries:
        v_tx = vel_for(tx_velocities, e.tx)
        v_rx = vel_for(rx_velocities, e.rx)
        f_d = f_over_c * (e.k_dep @ v_tx - e.k_arr @ v_rx)  # [rx_el, tx_el]
        phasors = np.exp(1j * TWO_PI * f_d[:, :, None] * t[None, None, :])
        out.append(PathGain(tx=e.tx, rx=e.rx, kind=e.kind, seq=e.seq,
                            delay=e.delay, a=e.a[:, :, 0:1] * phasors,
                            k_dep=e.k_dep, k_arr=e.k_arr))
    return ChannelGains(scene=gains.scene, entries=out, sample_times=t)
