"""Channel impulse responses, OFDM frequency responses, and coverage maps."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import DiffComplex
from .em import EvalContext, element_gains, synthetic_phase
from .geometry import mat_vec
from .scene import RadioDevice
from .tracer import candidate_set, compute_paths_between, solve_candidates

PROBE_NAME = "__probe__"
# orthonormal theta/phi polarization pair of the arrival direction
_PROBES = [("_probe_theta", 0.0), ("_probe_phi", 0.0)]
COVERAGE_MAGIC = "emtrace-coverage-v1"


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
    k = np.arange(num_subcarriers, dtype=np.float64)
    return (k - (num_subcarriers - 1) / 2.0) * spacing


def frequency_response(cir: Cir, num_subcarriers: int, spacing: float) -> FreqResponse:
    """H(f_k) = sum_i a_i e^{-j 2 pi f_k tau_i} on the centered grid."""
    f = subcarrier_frequencies(num_subcarriers, spacing)
    # [rx, tx, path, subcarrier]
    phase = np.exp(-2j * np.pi * cir.tau[:, :, :, None] * f[None, None, None, :])
    h = np.einsum("abcdpt,acpk->abcdkt", cir.a, phase)
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

    def cell_center(self, ix: int, iy: int) -> np.ndarray:
        return np.array([self.origin[0] + (ix + 0.5) * self.cell_size,
                         self.origin[1] + (iy + 0.5) * self.cell_size,
                         self.height])

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny


@dataclass
class CoverageMap:
    grid: GridSpec
    gains: np.ndarray  # [ny, nx] linear path gain, 0 where no paths arrive
    frequency_hz: float

    def to_db(self, floor_db: float = -150.0) -> np.ndarray:
        out = np.full(self.gains.shape, floor_db)
        mask = self.gains > 0
        out[mask] = np.maximum(10.0 * np.log10(self.gains[mask]), floor_db)
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


def probe_paths(scene, bvh, tx_dev, points, max_depth: int,
                method: str = "exhaustive", num_rays: int = 4096):
    """Yield (probe, paths) per point, all solved from one candidate set."""
    candidates = candidate_set(scene, bvh, tx_dev.position, max_depth, method,
                               num_rays)
    for point in points:
        probe = probe_receiver(point)
        yield probe, solve_candidates(scene, bvh, tx_dev, probe, candidates)


def point_path_gain(scene, bvh, tx_dev, point, max_depth: int,
                    method: str = "exhaustive", num_rays: int = 4096,
                    ctx: EvalContext | None = None, frozen_paths=None,
                    tx_mode: str = "central"):
    """Path gain sum_i |a_i|^2 at a probe point; scalar-like under a context.

    The probe is isotropic and polarization-agnostic: the arriving field is
    projected onto the orthonormal theta/phi pair of the arrival direction
    and both squared couplings are summed, which captures the full
    transverse field power. The transmit side is the array's single central
    element by default; ``tx_mode="array"`` sums all elements coherently at
    their broadside plane-wave phases.

    Returns (gain, paths); pass ``frozen_paths`` to reuse a traced topology.
    """
    if ctx is None:
        ctx = EvalContext(scene)
    probe = probe_receiver(point)
    if frozen_paths is None:
        frozen_paths = compute_paths_between(scene, bvh, tx_dev, probe,
                                             max_depth, method, num_rays)
    tx_arr = scene.tx_array
    if tx_mode == "central":
        tx_slants = [tx_arr.slants[0]]
    elif tx_mode == "array":
        offsets, slants = tx_arr.element_layout(scene.wavelength)
        rows = ctx.rotation_rows(tx_dev)
        offsets_w = [mat_vec(rows, o.tolist()) for o in offsets]
        # elements differ only in offset and slant: one gain per distinct slant
        tx_slants = sorted(set(float(s) for s in slants))
        of_element = [tx_slants.index(float(s)) for s in slants]
    else:
        raise ChannelError(f"unknown tx_mode {tx_mode!r}")
    tx_elements = [(tx_arr.pattern, s) for s in tx_slants]
    gain = 0.0
    for path in frozen_paths:
        geom, g = element_gains(ctx, bvh, path, tx_dev, probe, tx_elements, _PROBES)
        if tx_mode == "array":  # coherent sum at the elements' plane-wave phases
            phases = [synthetic_phase(geom.k_dep, o, scene.wavelength) for o in offsets_w]
            g = [[sum((row[s] * ph for s, ph in zip(of_element, phases)),
                      DiffComplex(0.0, 0.0))]
                 for row in g]
        for (a,) in g:  # one row per probe polarization
            gain = gain + a.abs2()
    return gain, frozen_paths


def coverage_map(scene, bvh, grid: GridSpec, max_depth: int,
                 method: str = "exhaustive", num_rays: int = 4096,
                 tx_name: str | None = None, tx_mode: str = "central",
                 cell_cap: int = 250_000) -> CoverageMap:
    """Deterministic per-cell coverage, solving one cell center at a time."""
    if grid.num_cells > cell_cap:
        raise ChannelError(f"grid has {grid.num_cells} cells, above the cap of {cell_cap}")
    txs = scene.transmitters
    if not txs:
        raise ChannelError("scene has no transmitter")
    tx_dev = scene.device(tx_name) if tx_name else txs[0]
    centers = (grid.cell_center(ix, iy)
               for iy in range(grid.ny) for ix in range(grid.nx))
    traced = probe_paths(scene, bvh, tx_dev, centers, max_depth, method, num_rays)
    gains = np.zeros((grid.ny, grid.nx))
    for k, (probe, paths) in enumerate(traced):  # row-major, as gains.flat
        g, _ = point_path_gain(scene, bvh, tx_dev, probe.position, max_depth,
                               method, num_rays, frozen_paths=paths,
                               tx_mode=tx_mode)
        gains.flat[k] = float(g)
    return CoverageMap(grid=grid, gains=gains, frequency_hz=scene.frequency_hz)
