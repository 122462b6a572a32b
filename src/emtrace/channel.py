"""Channel impulse responses, OFDM frequency responses, and coverage maps."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import DiffComplex, DiffScalar
from .em import EmError, EvalContext, PathKernel, element_field, synthetic_phase
from .geometry import mat_vec, t_dot
from .scene import RadioDevice
from .tracer import compute_paths_between, trace_links

PROBE_NAME = "__probe__"
# orthonormal theta/phi polarization pair of the arrival direction
_PROBES = [("_probe_theta", 0.0), ("_probe_phi", 0.0)]
COVERAGE_MAGIC = "emtrace-coverage-v1"
CELL_CHUNK = 1024  # coverage cells whose paths share one PathKernel
CELL_CAP = 250_000  # most cells a coverage map may have
FLOOR_DB = -150.0  # dB value of unreached cells and the floor of every map


class ChannelError(ValueError):
    pass


@dataclass
class Cir:
    """Channel impulse response tensors.

    ``a`` has shape [rx, rx_ant, tx, tx_ant, path, time_step] and ``tau``
    [rx, tx, path], sorted ascending in delay per (rx, tx); ragged path
    counts are zero-padded at the tail (a = 0 there, tau = 0).
    """

    a: np.ndarray
    tau: np.ndarray
    rx_names: list
    tx_names: list
    sample_times: np.ndarray


def build_cir(gains, los: bool = True, reflection: bool = True,
              normalize_delays: bool = False) -> Cir:
    """Pack per-path gains into dense CIR tensors, filtered by path class.

    Delays are absolute by default; ``normalize_delays`` shifts them so the
    first arrival of each (rx, tx) pair sits at zero.
    """
    scene = gains.scene
    rx_names = [d.name for d in scene.receivers]
    tx_names = [d.name for d in scene.transmitters]
    chosen = [e for e in gains.entries
              if (los and e.kind == "los") or (reflection and e.kind == "specular")]
    by_pair = {}
    for e in chosen:
        by_pair.setdefault((e.rx, e.tx), []).append(e)
    for pair in by_pair.values():
        pair.sort(key=lambda e: (e.delay, e.kind, e.seq))
    n_path = max((len(v) for v in by_pair.values()), default=0)
    n_rx_el = scene.rx_array.num_elements
    n_tx_el = scene.tx_array.num_elements
    n_t = chosen[0].a.shape[-1] if chosen else 1
    a = np.zeros((len(rx_names), n_rx_el, len(tx_names), n_tx_el, n_path, n_t),
                 dtype=np.complex128)
    tau = np.zeros((len(rx_names), len(tx_names), n_path))
    for r, rn in enumerate(rx_names):
        for t, tn in enumerate(tx_names):
            entries = by_pair.get((rn, tn), [])
            first = entries[0].delay if (normalize_delays and entries) else 0.0
            for p, e in enumerate(entries):
                a[r, :, t, :, p, :] = e.a
                tau[r, t, p] = e.delay - first
    return Cir(a=a, tau=tau, rx_names=rx_names, tx_names=tx_names,
               sample_times=gains.sample_times)


def save_cir(cir: Cir, path: str):
    """Write CIR tensors as flat binary with an explicit JSON shape header."""
    header = {"format": "emtrace-cir-v1", "a_shape": list(cir.a.shape),
              "tau_shape": list(cir.tau.shape), "rx": cir.rx_names,
              "tx": cir.tx_names,
              "sample_times_s": [float(t) for t in cir.sample_times]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(cir.a.astype("<c16").tobytes())
        fh.write(cir.tau.astype("<f8").tobytes())


def load_cir(path: str) -> Cir:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("format") != "emtrace-cir-v1":
            raise ChannelError(f"{path}: not a CIR file")
        a_shape = tuple(header["a_shape"])
        tau_shape = tuple(header["tau_shape"])
        n_a = int(np.prod(a_shape)) if a_shape else 0
        a = np.frombuffer(fh.read(16 * n_a), dtype="<c16").reshape(a_shape).copy()
        tau = np.frombuffer(fh.read(), dtype="<f8").reshape(tau_shape).copy()
    return Cir(a=a, tau=tau, rx_names=header["rx"], tx_names=header["tx"],
               sample_times=np.asarray(header["sample_times_s"]))


@dataclass
class FreqResponse:
    h: np.ndarray  # [rx_ant_total, tx_ant_total, subcarrier, time_step]
    frequencies: np.ndarray  # baseband subcarrier offsets [Hz]


def subcarrier_frequencies(num_subcarriers: int, spacing: float) -> np.ndarray:
    """Centered grid f_k = (k - (N-1)/2) * spacing, k = 0..N-1."""
    if num_subcarriers < 1:
        raise ChannelError("need at least one subcarrier")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ChannelError(f"subcarrier spacing must be positive and finite, got {spacing}")
    k = np.arange(num_subcarriers, dtype=np.float64)
    return (k - (num_subcarriers - 1) / 2.0) * spacing


def frequency_response(cir: Cir, num_subcarriers: int, spacing: float) -> FreqResponse:
    """H(f_k) = sum_i a_i e^{-j 2 pi f_k tau_i} on the centered grid."""
    f = subcarrier_frequencies(num_subcarriers, spacing)
    # [rx, tx, subcarrier, path]
    phase = np.exp(-2j * np.pi * f[None, None, :, None] * cir.tau[:, :, None, :])
    # [subcarrier, path] @ [path, time] per (rx, rx_el, tx, tx_el)
    h = phase[:, None, :, None] @ cir.a
    n_rx, n_rx_el, n_tx, n_tx_el = cir.a.shape[:4]
    h = h.reshape(n_rx * n_rx_el, n_tx * n_tx_el, num_subcarriers, cir.a.shape[-1])
    return FreqResponse(h=h, frequencies=f)


# -- coverage ----------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Horizontal measurement grid: nx x ny cells of cell_size meters.

    ``origin`` is the lower-left corner (min x, min y); probes sit at cell
    centers at ``height`` meters.
    """

    origin: tuple
    cell_size: float
    nx: int
    ny: int
    height: float = 1.5

    def __post_init__(self):
        if self.nx < 0 or self.ny < 0:
            raise ChannelError(f"grid nx and ny must be >= 0, got {self.nx} x {self.ny}")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0.0):
            raise ChannelError(f"grid cell_size must be positive and finite, got {self.cell_size}")
        if not all(math.isfinite(x) for x in self.origin):
            raise ChannelError(f"grid origin must be finite, got {self.origin}")
        if not math.isfinite(self.height):
            raise ChannelError(f"grid height must be finite, got {self.height}")

    def cell_center(self, ix: int, iy: int) -> np.ndarray:
        return np.array([self.origin[0] + (ix + 0.5) * self.cell_size,
                         self.origin[1] + (iy + 0.5) * self.cell_size,
                         self.height])

    def centers(self):
        """Every cell center, row-major as the [ny, nx] map (x fastest)."""
        return (self.cell_center(ix, iy) for iy in range(self.ny) for ix in range(self.nx))

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny


@dataclass
class CoverageMap:
    grid: GridSpec
    gains: np.ndarray  # [ny, nx] linear path gain, 0 where no paths arrive
    frequency_hz: float

    def to_db(self) -> np.ndarray:
        out = np.full(self.gains.shape, FLOOR_DB)
        mask = self.gains > 0
        out[mask] = np.maximum(10.0 * np.log10(self.gains[mask]), FLOOR_DB)
        return out

    def save_binary(self, path: str):
        header = {"format": COVERAGE_MAGIC, "nx": self.grid.nx, "ny": self.grid.ny,
                  "origin_m": list(self.grid.origin), "cell_m": self.grid.cell_size,
                  "height_m": self.grid.height, "frequency_hz": self.frequency_hz}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(self.gains.astype("<f8").tobytes())

    @staticmethod
    def load_binary(path: str) -> "CoverageMap":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            if header.get("format") != COVERAGE_MAGIC:
                raise ChannelError(f"{path}: not a coverage map file")
            raw = fh.read()
        grid = GridSpec(origin=tuple(header["origin_m"]), cell_size=header["cell_m"],
                        nx=header["nx"], ny=header["ny"], height=header["height_m"])
        gains = np.frombuffer(raw, dtype="<f8").reshape(grid.ny, grid.nx).copy()
        return CoverageMap(grid=grid, gains=gains, frequency_hz=header["frequency_hz"])


def probe_receiver(point) -> RadioDevice:
    return RadioDevice(kind="rx", name=PROBE_NAME,
                       position=np.asarray(point, dtype=np.float64))


def probe_links(scene, bvh, points, max_depth: int, method: str, num_rays: int):
    """Links (tx_dev, probe, paths) from the scene's first transmitter, one per point.

    The links come lazily from :func:`tracer.trace_links`; a scene without
    a transmitter raises :class:`ChannelError` at once.
    """
    txs = scene.transmitters
    if not txs:
        raise ChannelError("scene has no transmitter")
    return trace_links(bvh, txs[0], map(probe_receiver, points), max_depth, method, num_rays)


class ProbeKernel:
    """Path gains at probe points, from one :class:`PathKernel` over their paths.

    The probe is isotropic and polarization-agnostic: the arriving field is
    projected onto the orthonormal theta/phi pair of the arrival direction
    and both squared couplings are summed, which captures the full
    transverse field power. The transmit side is the array's single central
    element for ``tx_mode="central"``; ``tx_mode="array"`` sums all
    elements coherently at their broadside plane-wave phases, evaluating
    each distinct slant once. ``links`` holds (tx_dev, probe, paths), all
    from one transmitter.
    """

    def __init__(self, scene, bvh, links, tx_mode: str = "central"):
        if tx_mode not in ("central", "array"):
            raise ChannelError(f"unknown tx_mode {tx_mode!r}")
        arr = scene.tx_array
        self.array = tx_mode == "array"  # else the first element, at the center
        self.offsets, slants = (arr.element_layout(scene.wavelength) if self.array
                                else (np.zeros((1, 3)), arr.slants[:1]))
        slants, self.of_element = np.unique(slants, return_inverse=True)
        self.scene, self.tx_dev = scene, links[0][0]
        self.elements = [(arr.pattern, float(s)) for s in slants]
        # world-axis tx fields: gains w with a = w . f_tx, whatever the tx orientation
        self.kernel = PathKernel(scene, bvh, links, None, _PROBES)
        self.num_links = len(links)
        self.link = np.repeat(np.arange(len(links)), [len(paths) for _, _, paths in links])

    def gains(self) -> np.ndarray:
        """Path gain per link at the scene's stored materials and orientations."""
        k, ctx = self.kernel, EvalContext(self.scene)
        rows = ctx.rotation_rows(self.tx_dev)
        f = np.reshape([[element_field(*e, rows, d) for e in self.elements] for d in k.k_dep],
                       (-1, len(self.elements), 3))
        a = np.einsum("rxp,psx->rsp", k.gains(k.etas(ctx)), f)  # [probe, slant, path]
        off_w = self.offsets @ np.array(rows).T
        k_dep = np.reshape(k.k_dep, (-1, 3))
        phases = np.exp(2j * np.pi * (off_w @ k_dep.T) / self.scene.wavelength)
        a = (a[:, self.of_element] * phases).sum(axis=1)  # coherent sum over elements
        power = (a.real * a.real + a.imag * a.imag).sum(axis=0)
        return np.bincount(self.link, power, self.num_links)

    def total(self, ctx: EvalContext):
        """Gain summed over all links under ``ctx``'s tx orientation.

        On a tape, only each path's tx element fields f under the rotation
        and their products with the kernel's frozen vectors w are recorded.
        """
        for name in ("positions", "material_values"):
            if any(isinstance(x, DiffScalar) for v in getattr(ctx, name).values() for x in v):
                raise EmError(f"path gains differentiate tx orientations only, not {name}")
        w = self.kernel.gains(self.kernel.etas(ctx)).transpose(2, 0, 1)  # [path, probe, 3]
        w_re, w_im = w.real.tolist(), w.imag.tolist()
        rows = ctx.rotation_rows(self.tx_dev)
        offsets_w = [mat_vec(rows, o) for o in self.offsets.tolist()] if self.array else []
        total = 0.0
        for k, re_p, im_p in zip(self.kernel.k_dep, w_re, w_im):
            fields = [element_field(*e, rows, k) for e in self.elements]
            phases = [synthetic_phase(k, o, self.scene.wavelength) for o in offsets_w]
            for re, im in zip(re_p, im_p):  # one per probe polarization
                g = [DiffComplex(t_dot(re, f), t_dot(im, f)) for f in fields]
                # the coherent sum at the elements' plane-wave phases
                a = sum((g[s] * ph for s, ph in zip(self.of_element, phases)),
                        DiffComplex(0.0, 0.0)) if self.array else g[0]
                total = total + a.abs2()
        return total


def point_path_gain(scene, bvh, tx_dev, point, max_depth: int,
                    method: str = "exhaustive", num_rays: int = 4096,
                    ctx: EvalContext | None = None, frozen_paths=None,
                    tx_mode: str = "central"):
    """Path gain sum_i |a_i|^2 at a probe point, as :class:`ProbeKernel` defines it.

    Under a context the gain follows its tx orientation, scalar-like on a
    tape; tracked positions or materials raise :class:`EmError`.
    Returns (gain, paths); pass ``frozen_paths`` to reuse a traced topology.
    """
    probe = probe_receiver(point)
    if frozen_paths is None:
        frozen_paths = compute_paths_between(scene, bvh, tx_dev, probe,
                                             max_depth, method, num_rays)
    probes = ProbeKernel(scene, bvh, [(tx_dev, probe, frozen_paths)], tx_mode)
    if ctx is None:
        return float(probes.gains()[0]), frozen_paths
    return probes.total(ctx), frozen_paths


def coverage_map(scene, bvh, grid: GridSpec, max_depth: int,
                 method: str = "exhaustive", num_rays: int = 4096,
                 tx_mode: str = "central") -> CoverageMap:
    """Deterministic per-cell coverage from the scene's first transmitter.

    Cell centers are solved one at a time from one candidate set; their
    gains are evaluated :data:`CELL_CHUNK` cells per kernel.
    """
    if grid.num_cells > CELL_CAP:
        raise ChannelError(f"grid has {grid.num_cells} cells, above the cap of {CELL_CAP}")
    traced = probe_links(scene, bvh, grid.centers(), max_depth, method, num_rays)
    gains = np.zeros(grid.num_cells)  # row-major, as the [ny, nx] map
    for lo in range(0, grid.num_cells, CELL_CHUNK):
        links = list(itertools.islice(traced, CELL_CHUNK))
        gains[lo:lo + len(links)] = ProbeKernel(scene, bvh, links, tx_mode).gains()
    return CoverageMap(grid=grid, gains=gains.reshape(grid.ny, grid.nx),
                       frequency_hz=scene.frequency_hz)
