"""Gradient-based calibration and orientation optimization.

Two experiments sit on top of the differentiable coefficient pipeline:
learning radio material parameters from channel frequency responses (NMSE
loss, projected gradient descent) and steering a transmitter to maximize
mean received power over a map region (gradient ascent). Both run the same
loop, :func:`_optimize`: line-searched gradient steps over named leaves,
each clipped at its lower bound. Neither materials nor orientation move
path geometry, so both trace their probes once and build one
:class:`em.PathKernel`, before the first iteration.

Material learning evaluates its loss in numpy, one pass over all record
paths whatever their interaction counts, and takes the gradient on the
(eps_r, sigma) leaves directly from the kernel's closed-form
vector-Jacobian product; it records no tape. Orientation is the one
experiment that records a tape: it keeps the kernel's vectors w fixed and
records only the transmitter's element fields under the rotation leaves
and their products w . f.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import DiffScalar, Tape
from .autodiff import log as ad_log
from .bvh import build
from .channel import GridSpec, ProbeKernel, probe_links, subcarrier_frequencies
from .em import EvalContext, PathKernel
from .scene import eta_per_sigma


class OptimError(ValueError):
    pass


@dataclass
class OptimConfig:
    lr: float = 0.05  # eps_r leaves; sigma leaves step lr / 10
    lr_angle: float = 0.2  # radians-scale leaves
    iterations: int = 500
    max_depth: int = 2
    method: str = "exhaustive"
    num_rays: int = 4096

    def __post_init__(self):
        if not self.iterations >= 1:
            raise OptimError(f"iterations must be at least 1, got {self.iterations}")
        for name in ("lr", "lr_angle"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise OptimError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class DatasetRecord:
    position: np.ndarray
    h: np.ndarray  # complex frequency response [N]


@dataclass
class Dataset:
    frequency_hz: float
    num_subcarriers: int
    subcarrier_spacing_hz: float
    records: list

    def save(self, path: str):
        payload = {
            "frequency_hz": self.frequency_hz,
            "num_subcarriers": self.num_subcarriers,
            "subcarrier_spacing_hz": self.subcarrier_spacing_hz,
            "records": [{"position_m": [float(x) for x in r.position],
                         "h_re": [float(v) for v in r.h.real],
                         "h_im": [float(v) for v in r.h.imag]}
                        for r in self.records],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "Dataset":
        """Read a dataset file; OptimError naming the field when one is malformed."""
        try:
            with open(path) as fh:
                d = json.load(fh)
            head = [d[k] for k in ("frequency_hz", "num_subcarriers",
                                   "subcarrier_spacing_hz", "records")]
            recs = [[np.asarray(r[k], dtype=np.float64)
                     for k in ("position_m", "h_re", "h_im")] for r in head[3]]
        except json.JSONDecodeError as e:
            raise OptimError(f"{path}: not a JSON dataset: {e}") from None
        except KeyError as e:
            raise OptimError(f"{path}: dataset is missing field {e}") from None
        except (TypeError, ValueError):
            raise OptimError(f"{path}: dataset fields must be numbers or lists "
                             "of numbers") from None
        for k, (pos, h_re, h_im) in enumerate(recs):
            if pos.shape != (3,):
                raise OptimError(f"{path}: records[{k}].position_m must have 3 values")
            if not h_re.shape == h_im.shape == (head[1],):
                raise OptimError(f"{path}: records[{k}]: h_re and h_im need "
                                 f"num_subcarriers = {head[1]} values each")
        return Dataset(*head[:3], [DatasetRecord(position=pos, h=h_re + 1j * h_im)
                                   for pos, h_re, h_im in recs])


class TrainLog:
    """Per-iteration loss and leaf values; serializes to CSV."""

    def __init__(self, leaf_names):
        self.leaf_names = list(leaf_names)
        self.rows = []  # (iteration, loss, {leaf: value})
        self.final_values = {}

    def append(self, iteration: int, loss: float, values: dict):
        self.rows.append((iteration, loss, dict(values)))

    @property
    def losses(self):
        return [r[1] for r in self.rows]

    def to_csv(self) -> str:
        head = ",".join(["iteration", "loss"] + self.leaf_names)
        lines = [head]
        for it, loss, vals in self.rows:
            lines.append(",".join([str(it), repr(loss)]
                                  + [repr(vals[n]) for n in self.leaf_names]))
        return "\n".join(lines) + "\n"

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


# -- losses -------------------------------------------------------------------

class _FrozenNmse:
    """Mean NMSE over records of frozen paths, as a numpy function of the etas.

    Records are stacked with their paths zero-padded to the longest record:
    ``basis[r, n, q]`` is record r's delay phasor of its path q at
    subcarrier n. ``path_lists`` follows the path order of ``kernel``, a
    kernel of one element pair.
    """

    def __init__(self, kernel, path_lists, f, targets):
        counts = [len(paths) for paths in path_lists]
        self.kernel = kernel
        self.rows = np.repeat(np.arange(len(counts)), counts)
        self.cols = np.concatenate([np.arange(c) for c in counts])
        tau = np.zeros((len(counts), max(counts)))
        tau[self.rows, self.cols] = [p.delay_s for paths in path_lists for p in paths]
        self.basis = np.exp(-2j * np.pi * f[None, :, None] * tau[:, None, :])
        self.basis_h = self.basis.conj().transpose(0, 2, 1)
        self.targets = np.array(targets, dtype=np.complex128)
        self.norm2 = np.einsum("rn,rn->r", self.targets.conj(), self.targets).real
        if np.any(self.norm2 <= 0.0):
            raise OptimError("dataset record has zero-norm target response")

    def __call__(self, eta, with_grad: bool = False):
        """(loss, d loss / d eta as dL/dRe + j dL/dIm, or None)."""
        a = np.zeros(self.basis.shape[::2], dtype=np.complex128)
        a[self.rows, self.cols] = self.kernel.gains(eta)[0, 0]
        err = (self.basis @ a[:, :, None])[:, :, 0] - self.targets
        n = len(self.norm2)
        loss = float(np.sum(np.einsum("rn,rn->r", err.conj(), err).real / self.norm2)) / n
        if not with_grad:
            return loss, None
        grad_a = (self.basis_h @ err[:, :, None])[:, :, 0] * (2.0 / n / self.norm2)[:, None]
        return loss, self.kernel.vjp(eta, grad_a[self.rows, self.cols])


# -- the shared optimiser loop --------------------------------------------------

_EPS_KEY = "mat:{}:eps_r"
_SIG_KEY = "mat:{}:sigma"
_ANGLE_KEYS = ("yaw", "pitch", "roll")
_TOL_WINDOW = 10  # rows the relative stop looks back over
_REL_TOL = 1e-6  # relative change over the window below which the loop stops


def _converged(losses, rel_tol: float) -> bool:
    w = _TOL_WINDOW
    if len(losses) <= w:
        return False
    ref = abs(losses[-w - 1])
    if ref == 0.0:
        return abs(losses[-1]) == 0.0
    return abs(losses[-1] - losses[-w - 1]) / ref < rel_tol


def _optimize(values, evaluate, step, lower, config: OptimConfig, sign: float) -> TrainLog:
    """Projected gradient steps on the leaves ``values``; sign=-1 descends, +1 ascends.

    ``evaluate(values, with_grad)`` returns (value to log, value f to step
    on, df/d leaf per leaf, where a missing leaf has zero gradient). Leaf k
    moves by sign * s * step[k] * df/dk and is clipped below at lower[k].
    The trial scale s is halved until the Armijo condition holds, so
    descent never increases f and ascent never decreases it; a step taken
    at its first trial doubles s for the next iteration. The loop stops at
    ``config.iterations`` rows, or once the logged value has moved by less
    than ``_REL_TOL`` (relative) over the last ``_TOL_WINDOW`` rows.
    """
    log = TrainLog(values)
    scale = 1.0
    for it in range(config.iterations):
        shown, f0, grads = evaluate(values, True)
        if not math.isfinite(f0):
            raise OptimError(f"loss diverged (non-finite) at iteration {it}: "
                             f"values {values}")
        log.append(it, shown, values)
        direction = {k: step[k] * grads.get(k, 0.0) for k in values}
        slope = sum(direction[k] * grads.get(k, 0.0) for k in values)
        trial = scale
        while slope != 0.0:
            if trial <= 1e-10:  # no productive step found; stay put
                scale = 1.0
                break
            cand = {k: max(values[k] + sign * trial * direction[k], lower[k])
                    for k in values}
            if sign * (evaluate(cand, False)[1] - f0) >= 1e-4 * trial * slope:
                values, scale = cand, (min(trial * 2.0, 1e9) if trial == scale else trial)
                break
            trial *= 0.5
        if _converged(log.losses, _REL_TOL):
            break
    log.final_values = dict(values)
    return log


# -- dataset generation ---------------------------------------------------------

def _central_elements(scene):
    """(tx, rx) element lists of :class:`PathKernel`: each array's first element."""
    return tuple([(a.pattern, a.slants[0])] for a in (scene.tx_array, scene.rx_array))


def generate_dataset(scene, positions=None, num_subcarriers: int = 128,
                     subcarrier_spacing_hz: float = 30e3, max_depth: int = 2,
                     method: str = "exhaustive", num_rays: int = 4096,
                     bvh=None) -> Dataset:
    """Frequency responses at probe positions using the scene's materials.

    Defaults to the positions of the scene's receivers. Responses connect
    the central element of the scene's first transmitter to the central rx
    element. Bit-identical across reruns for identical inputs.
    """
    if bvh is None:
        bvh = build(scene)
    if positions is None:
        positions = [d.position for d in scene.receivers]
    if not len(positions):
        raise OptimError("no probe positions to generate data for")
    f = subcarrier_frequencies(num_subcarriers, subcarrier_spacing_hz)
    links = list(probe_links(scene, bvh, positions, max_depth, method, num_rays))
    kernel = PathKernel(scene, bvh, links, *_central_elements(scene))
    gains = iter(kernel.gains(kernel.etas(EvalContext(scene)))[0, 0])
    records = []
    for _, probe, paths in links:
        h = np.zeros(num_subcarriers, dtype=np.complex128)
        for path, a in zip(paths, gains):
            h += a * np.exp(-2j * np.pi * f * path.delay_s)
        records.append(DatasetRecord(position=probe.position, h=h))
    return Dataset(frequency_hz=scene.frequency_hz,
                   num_subcarriers=num_subcarriers,
                   subcarrier_spacing_hz=subcarrier_spacing_hz,
                   records=records)


# -- experiment A: learning radio materials ------------------------------------

def trainable_material_names(scene) -> list:
    return sorted(name for name, m in scene.materials.items() if m.trainable)


def learn_materials(scene, dataset: Dataset, config: OptimConfig | None = None,
                    bvh=None) -> TrainLog:
    """Projected gradient descent on the dataset NMSE over trainable materials.

    Record paths are traced once. Materials whose parameters no path
    touches receive exact zero gradients and stay bit-identical.
    """
    config = config or OptimConfig()
    if bvh is None:
        bvh = build(scene)
    names = trainable_material_names(scene)
    if not names:
        raise OptimError("scene has no trainable materials")
    if not abs(dataset.frequency_hz - scene.frequency_hz) <= 1e-6 * scene.frequency_hz:
        raise OptimError("dataset frequency_hz differs from the scene's carrier")
    if not dataset.records:
        raise OptimError("dataset 'records' is empty")
    f = subcarrier_frequencies(dataset.num_subcarriers, dataset.subcarrier_spacing_hz)

    links = list(probe_links(scene, bvh, [r.position for r in dataset.records],
                             config.max_depth, config.method, config.num_rays))
    nmse = _FrozenNmse(PathKernel(scene, bvh, links, *_central_elements(scene)),
                       [paths for _, _, paths in links], f,
                       [rec.h for rec in dataset.records])
    d_eta_d_sigma = eta_per_sigma(scene.frequency_hz)

    def evaluate(vals, with_grad):
        ctx = EvalContext(scene, material_values={
            n: (vals[_EPS_KEY.format(n)], vals[_SIG_KEY.format(n)]) for n in names})
        loss, grad_eta = nmse(nmse.kernel.etas(ctx), with_grad)
        grads = {}  # a leaf whose material no path touches has zero gradient
        for n, g in zip(nmse.kernel.materials, grad_eta if with_grad else ()):
            grads[_EPS_KEY.format(n)] = float(g.real)
            grads[_SIG_KEY.format(n)] = float(g.imag) * d_eta_d_sigma
        return loss, loss, grads

    leaves = {}  # key -> (initial value, step size, lower bound)
    for n in names:
        m = scene.materials[n]
        leaves[_EPS_KEY.format(n)] = (float(m.eps_r), config.lr, 1.0)
        leaves[_SIG_KEY.format(n)] = (float(m.sigma), config.lr / 10.0, 0.0)
    values, step, lower = ({k: leaves[k][i] for k in sorted(leaves)} for i in range(3))
    return _optimize(values, evaluate, step, lower, config, sign=-1.0)


# -- experiment B: transmitter orientation -------------------------------------

def optimize_orientation(scene, region: GridSpec, config: OptimConfig | None = None,
                         bvh=None) -> TrainLog:
    """Gradient ascent of mean region path gain over the first transmitter's yaw/pitch/roll.

    The objective is the linear-domain mean of per-cell path gains. When no
    path reaches the region the orientation gradient is zero everywhere;
    a warning is emitted and the orientation is returned unchanged.
    """
    config = config or OptimConfig()
    if bvh is None:
        bvh = build(scene)
    if not region.num_cells:
        raise OptimError("empty region")
    links = list(probe_links(scene, bvh, region.centers(), config.max_depth, config.method,
                             config.num_rays))  # orientation never moves path geometry
    tx_dev = links[0][0]
    keys = [f"dev:{tx_dev.name}:{k}" for k in _ANGLE_KEYS]
    values = dict(zip(keys, (float(a) for a in tx_dev.orientation)))
    if all(len(paths) == 0 for _, _, paths in links):
        warnings.warn("no propagation path reaches the target region; "
                      "orientation left unchanged")
        log = TrainLog(keys)
        log.append(0, 0.0, values)
        log.final_values = dict(values)
        return log
    probes = ProbeKernel(scene, bvh, links)

    def evaluate(vals, with_grad):
        tape = Tape() if with_grad else None
        leaves = tuple(tape.leaf(vals[k], k) if with_grad else vals[k] for k in keys)
        obj = probes.total(EvalContext(scene, orientations={tx_dev.name: leaves})) / len(links)
        # Path gains are tiny in linear units; ascending log(objective) makes
        # the step size scale-free while keeping the optimum and monotonicity.
        # An objective <= 0 has no log: -inf fails the driver's finiteness
        # check and every line-search trial.
        log_obj = ad_log(obj) if obj > 0.0 else -math.inf
        grads = tape.gradient(log_obj) if with_grad and isinstance(log_obj, DiffScalar) else {}
        return float(obj), float(log_obj), grads

    return _optimize(values, evaluate, dict.fromkeys(keys, config.lr_angle),
                     dict.fromkeys(keys, -math.inf), config, sign=+1.0)
