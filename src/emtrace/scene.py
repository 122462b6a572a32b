"""Immutable scene model and its structured-text (JSON) loader.

A scene bundles triangle meshes with radio-material bindings, the shared
transmit/receive antenna array configurations, radio devices, and the
carrier frequency. Field names in the file format carry explicit units
(``position_m``, ``frequency_hz``, ...) so unit bugs fail loudly at parse
time instead of silently corrupting results.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import DiffComplex
from .geometry import VACUUM_PERMITTIVITY

PATTERN_NAMES = ("iso", "dipole", "tr38901")
POLARIZATIONS = ("V", "H", "VH", "cross")

# slant of each colocated element about boresight, per polarization mode
POLARIZATION_SLANTS = {
    "V": (0.0,),
    "H": (math.pi / 2,),
    "VH": (0.0, math.pi / 2),
    "cross": (math.pi / 4, -math.pi / 4),
}


class SceneError(ValueError):
    """Scene file failed to parse or validate."""


@dataclass(frozen=True)
class RadioMaterial:
    """Non-magnetic radio material (mu_r = 1).

    ``constant`` materials carry (eps_r, sigma) directly. ``power_law``
    materials follow the ITU-style frequency dependence
    eps_r = a * f_GHz^b, sigma = c * f_GHz^d.
    """

    name: str
    model: str = "constant"  # "constant" | "power_law"
    eps_r: float = 1.0
    sigma: float = 0.0
    coeffs: tuple = ()  # (a, b, c, d) for power_law
    trainable: bool = False

    def validate(self):
        if self.model not in ("constant", "power_law"):
            raise SceneError(f"material {self.name!r}: unknown model {self.model!r}")
        if self.model == "constant":
            if not (self.eps_r >= 1.0):
                raise SceneError(f"material {self.name!r}: eps_r must be >= 1")
            if not (self.sigma >= 0.0):
                raise SceneError(f"material {self.name!r}: sigma must be >= 0")
        else:
            if len(self.coeffs) != 4:
                raise SceneError(f"material {self.name!r}: power_law needs coeffs (a, b, c, d)")
            if self.trainable:
                raise SceneError(
                    f"material {self.name!r}: trainable materials must use the constant model")


@dataclass(frozen=True)
class MaterialEval:
    """Material parameters at a carrier frequency; components may be tape leaves."""

    eps_r: object  # float or DiffScalar
    sigma: object
    eta: DiffComplex  # complex relative permittivity eps_r - j*sigma/(2 pi f eps0)


def material_eval(m: RadioMaterial, frequency_hz: float,
                  eps_override=None, sigma_override=None) -> MaterialEval:
    """Evaluate (eps_r, sigma, eta) at ``frequency_hz``.

    Overrides replace the stored values; they are how trainable materials
    get wired to tape leaves without mutating the scene. ``frequency_hz``
    is positive, as :meth:`Scene.validate` guarantees for a scene's carrier.
    """
    if m.model == "constant":
        eps_r, sigma = m.eps_r, m.sigma
    else:
        a, b, c, d = m.coeffs
        f_ghz = frequency_hz / 1e9
        eps_r = a * f_ghz ** b
        sigma = c * f_ghz ** d
    if eps_override is not None:
        eps_r = eps_override
    if sigma_override is not None:
        sigma = sigma_override
    return MaterialEval(eps_r, sigma, DiffComplex(eps_r, sigma * eta_per_sigma(frequency_hz)))


def eta_per_sigma(frequency_hz: float) -> float:
    """d Im(eta) / d sigma: eta = eps_r - j sigma / (2 pi f eps0) is linear in sigma."""
    return -1.0 / (2.0 * math.pi * frequency_hz * VACUUM_PERMITTIVITY)


@dataclass(frozen=True)
class AntennaArray:
    """Planar array shared by all transmitters or all receivers.

    Elements sit on the local y-z plane centered at the origin: columns
    along y spaced ``horizontal_spacing`` wavelengths, rows along z spaced
    ``vertical_spacing`` wavelengths. Dual polarization doubles the element
    count with colocated slanted copies.
    """

    num_rows: int = 1
    num_cols: int = 1
    vertical_spacing: float = 0.5
    horizontal_spacing: float = 0.5
    pattern: str = "iso"
    polarization: str = "V"

    def validate(self, key: str = "array"):
        if self.num_rows < 1 or self.num_cols < 1:
            raise SceneError(f"{key}: num_rows and num_cols must be >= 1")
        for name in ("vertical_spacing", "horizontal_spacing"):
            if not 0 < getattr(self, name) < math.inf:
                raise SceneError(f"{key}: {name} must be positive and finite")
        if self.pattern not in PATTERN_NAMES:
            raise SceneError(f"{key}: unknown antenna pattern {self.pattern!r}")
        if self.polarization not in POLARIZATIONS:
            raise SceneError(f"{key}: unknown polarization {self.polarization!r}")

    @property
    def slants(self) -> tuple:
        return POLARIZATION_SLANTS[self.polarization]

    @property
    def num_elements(self) -> int:
        return self.num_rows * self.num_cols * len(self.slants)

    def element_layout(self, wavelength: float):
        """(offsets [n,3] in meters, slant angle per element).

        Element index = slant_block * rows * cols + row * cols + col.
        Offsets are centered (mean exactly zero).
        """
        rows, cols = self.num_rows, self.num_cols
        dy = self.horizontal_spacing * wavelength
        dz = self.vertical_spacing * wavelength
        base = np.zeros((rows * cols, 3))
        for r in range(rows):
            for c in range(cols):
                base[r * cols + c, 1] = (c - (cols - 1) / 2.0) * dy
                base[r * cols + c, 2] = (r - (rows - 1) / 2.0) * dz
        offsets = np.vstack([base] * len(self.slants))
        slants = np.repeat(self.slants, rows * cols)
        return offsets, slants


@dataclass
class SceneObject:
    name: str
    material: str
    vertices: np.ndarray  # [n, 3] float64, meters
    triangles: np.ndarray  # [m, 3] int indices

    def validate(self):
        v, t = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 3 or t.ndim != 2 or t.shape[1] != 3:
            raise SceneError(f"object {self.name!r}: bad vertex/triangle shapes")
        if not np.isfinite(v).all():
            raise SceneError(f"object {self.name!r}: non-finite vertex coordinates")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise SceneError(f"object {self.name!r}: triangle index out of range")
        a = v[t[:, 1]] - v[t[:, 0]]
        b = v[t[:, 2]] - v[t[:, 0]]
        areas = 0.5 * np.linalg.norm(np.cross(a, b), axis=1)
        if t.size and areas.min() <= 1e-12:
            bad = int(np.argmin(areas))
            raise SceneError(f"object {self.name!r}: degenerate (zero-area) triangle {bad}")


@dataclass
class RadioDevice:
    """Transmitter or receiver with position, yaw/pitch/roll and velocity.

    Velocity is expressed in the world frame. Boresight is the local +x
    axis after rotation.
    """

    kind: str  # "tx" | "rx"
    name: str
    position: np.ndarray
    orientation: tuple = (0.0, 0.0, 0.0)  # yaw, pitch, roll [rad]
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def validate(self):
        if self.kind not in ("tx", "rx"):
            raise SceneError(f"device {self.name!r}: kind must be 'tx' or 'rx'")
        for key, value in (("position_m", self.position),
                           ("orientation_rad", self.orientation),
                           ("velocity_mps", self.velocity)):
            if np.shape(value) != (3,):
                raise SceneError(f"device {self.name!r}: {key} must have 3 values, "
                                 f"got {np.size(value)}")
            if not np.isfinite(value).all():
                raise SceneError(f"device {self.name!r}: non-finite {key}")


def look_at(device: RadioDevice, target) -> tuple:
    """Orient ``device`` so its boresight (+x after rotation) points at ``target``.

    Roll is left at zero. Returns and assigns the (yaw, pitch, roll) triple.
    """
    t = np.asarray(target, dtype=np.float64)
    d = t - device.position
    dist = float(np.linalg.norm(d))
    if dist < 1e-12:
        raise SceneError(f"device {device.name!r}: look_at target coincides with position")
    yaw = math.atan2(d[1], d[0])
    pitch = -math.asin(max(-1.0, min(1.0, d[2] / dist)))
    device.orientation = (yaw, pitch, 0.0)
    return device.orientation


@dataclass
class Scene:
    frequency_hz: float
    objects: list
    materials: dict
    tx_array: AntennaArray
    rx_array: AntennaArray
    devices: list
    synthetic_array: bool = True

    @property
    def wavelength(self) -> float:
        from .geometry import SPEED_OF_LIGHT
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def transmitters(self) -> list:
        return [d for d in self.devices if d.kind == "tx"]

    @property
    def receivers(self) -> list:
        return [d for d in self.devices if d.kind == "rx"]

    def device(self, name: str) -> RadioDevice:
        for d in self.devices:
            if d.name == name:
                return d
        raise SceneError(f"no device named {name!r}")

    def validate(self):
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise SceneError("frequency_hz must be positive and finite")
        for m in self.materials.values():
            m.validate()
        for o in self.objects:
            o.validate()
            if o.material not in self.materials:
                raise SceneError(f"object {o.name!r}: undefined material {o.material!r}")
        self.tx_array.validate("tx_array")
        self.rx_array.validate("rx_array")
        names = set()
        for d in self.devices:
            d.validate()
            if d.name in names:
                raise SceneError(f"duplicate device name {d.name!r}")
            names.add(d.name)


# -- file format -------------------------------------------------------------

def _numbers(value, field: str, integer: bool = False) -> np.ndarray:
    """``value`` as a float64 array, int64 with ``integer``; else a SceneError."""
    try:
        a = np.asarray(value)
        if integer and a.dtype.kind in "iu":  # plain JSON integers
            return a.astype(np.int64)
        a = a.astype(np.float64, copy=False)
    except (TypeError, ValueError):
        raise SceneError(f"{field} must be numeric") from None
    if integer and not (np.isfinite(a).all() and (a == np.trunc(a)).all()):
        raise SceneError(f"{field} must be integers")
    return a.astype(np.int64) if integer else a


def _number(value, field: str, integer: bool = False):
    """``value`` as a float, an int with ``integer``; else a SceneError."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise SceneError(f"{field} must be a number, got {value!r}") from None
    if integer and not x.is_integer():
        raise SceneError(f"{field} must be an integer, got {value!r}")
    return int(x) if integer else x


def _flag(value, field: str) -> bool:
    """A JSON boolean; anything else, such as the string "false", is a SceneError."""
    if not isinstance(value, bool):
        raise SceneError(f"{field} must be true or false, got {value!r}")
    return value


def _load_obj_mesh(path: str):
    """Wavefront OBJ subset: only ``v`` and ``f`` records, faces fan-triangulated."""
    verts, tris = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or parts[0] in ("#",):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise SceneError(f"{path}:{lineno}: malformed vertex record")
                verts.append([_number(x, f"{path}:{lineno}: vertex coordinate")
                              for x in parts[1:4]])
            elif parts[0] == "f":
                idx = [_number(p.split("/")[0], f"{path}:{lineno}: face index", True) - 1
                       for p in parts[1:]]
                if len(idx) < 3:
                    raise SceneError(f"{path}:{lineno}: face needs >= 3 vertices")
                for k in range(1, len(idx) - 1):
                    tris.append([idx[0], idx[k], idx[k + 1]])
            # other record types are outside the supported subset
    return np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64)


def _material_from_dict(d: dict) -> RadioMaterial:
    name = d.get("name")
    if not name:
        raise SceneError("material without a name")
    model = d.get("model", "constant")
    params = d.get("params", {})
    trainable = _flag(d.get("trainable", False), f"material {name!r}: trainable")
    if model == "power_law":
        try:
            coeffs = tuple(_number(params[k], f"material {name!r}: {k}")
                           for k in ("a", "b", "c", "d"))
        except KeyError as e:
            raise SceneError(f"material {name!r}: power_law missing coefficient {e}") from None
        return RadioMaterial(name, "power_law", coeffs=coeffs, trainable=trainable)
    # constant, or an unknown model that RadioMaterial.validate rejects
    return RadioMaterial(name, model,
                         eps_r=_number(params.get("eps_r", 1.0), f"material {name!r}: eps_r"),
                         sigma=_number(params.get("sigma", 0.0), f"material {name!r}: sigma"),
                         trainable=trainable)


def _array_from_dict(d: dict, key: str) -> AntennaArray:
    return AntennaArray(
        num_rows=_number(d.get("num_rows", 1), f"{key}: num_rows", integer=True),
        num_cols=_number(d.get("num_cols", 1), f"{key}: num_cols", integer=True),
        vertical_spacing=_number(d.get("vertical_spacing", 0.5), f"{key}: vertical_spacing"),
        horizontal_spacing=_number(d.get("horizontal_spacing", 0.5),
                                   f"{key}: horizontal_spacing"),
        pattern=d.get("pattern", "iso"),
        polarization=d.get("polarization", "V"),
    )


def scene_from_dict(data: dict, base_dir: str = ".") -> Scene:
    try:
        frequency = _number(data["frequency_hz"], "frequency_hz")
    except KeyError:
        raise SceneError("missing top-level field 'frequency_hz'") from None
    materials = {}
    for md in data.get("materials", []):
        m = _material_from_dict(md)
        materials[m.name] = m
    objects = []
    for od in data.get("objects", []):
        name = od.get("name", f"object{len(objects)}")
        if "mesh_file" in od:
            verts, tris = _load_obj_mesh(os.path.join(base_dir, od["mesh_file"]))
        else:
            flat_v = _numbers(od.get("vertices_m", []), f"object {name!r}: vertices_m")
            flat_t = _numbers(od.get("triangles", []), f"object {name!r}: triangles",
                              integer=True)
            if flat_v.size % 3 or flat_t.size % 3:
                raise SceneError(f"object {name!r}: vertices_m and triangles must be flat "
                                 "lists of triplets")
            verts = flat_v.reshape(-1, 3)
            tris = flat_t.reshape(-1, 3)
        objects.append(SceneObject(name=name, material=od.get("material", ""),
                                   vertices=verts, triangles=tris))
    devices = []
    for dd in data.get("devices", []):
        name = dd.get("name", "")
        field = {key: _numbers(dd.get(key, [0, 0, 0]), f"device {name!r}: {key}")
                 for key in ("position_m", "orientation_rad", "velocity_mps")}
        devices.append(RadioDevice(
            kind=dd.get("kind", ""), name=name, position=field["position_m"],
            orientation=tuple(np.atleast_1d(field["orientation_rad"]).tolist()),
            velocity=field["velocity_mps"],
        ))
    scene = Scene(
        frequency_hz=frequency,
        objects=objects,
        materials=materials,
        tx_array=_array_from_dict(data.get("tx_array", {}), "tx_array"),
        rx_array=_array_from_dict(data.get("rx_array", {}), "rx_array"),
        devices=devices,
        synthetic_array=_flag(data.get("synthetic_array", True), "synthetic_array"),
    )
    scene.validate()
    return scene


def scene_to_dict(scene: Scene) -> dict:
    mats = []
    for m in scene.materials.values():
        if m.model == "constant":
            params = {"eps_r": m.eps_r, "sigma": m.sigma}
        else:
            params = dict(zip(("a", "b", "c", "d"), m.coeffs))
        mats.append({"name": m.name, "model": m.model, "params": params,
                     "trainable": m.trainable})
    objs = [{"name": o.name, "material": o.material,
             "vertices_m": [float(x) for x in o.vertices.reshape(-1)],
             "triangles": [int(i) for i in o.triangles.reshape(-1)]}
            for o in scene.objects]
    arrs = {}
    for key, a in (("tx_array", scene.tx_array), ("rx_array", scene.rx_array)):
        arrs[key] = {"num_rows": a.num_rows, "num_cols": a.num_cols,
                     "vertical_spacing": a.vertical_spacing,
                     "horizontal_spacing": a.horizontal_spacing,
                     "pattern": a.pattern, "polarization": a.polarization}
    devs = [{"kind": d.kind, "name": d.name,
             "position_m": [float(x) for x in d.position],
             "orientation_rad": [float(x) for x in d.orientation],
             "velocity_mps": [float(x) for x in d.velocity]}
            for d in scene.devices]
    return {"frequency_hz": scene.frequency_hz,
            "synthetic_array": scene.synthetic_array,
            "materials": mats, "objects": objs,
            "tx_array": arrs["tx_array"], "rx_array": arrs["rx_array"],
            "devices": devs}


def load_scene(path: str) -> Scene:
    """Load and validate a scene file (JSON-compatible structured text)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise SceneError(f"cannot read scene file {path!r}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise SceneError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    try:
        return scene_from_dict(data, base_dir=os.path.dirname(path) or ".")
    except SceneError as e:
        raise SceneError(f"{path}: {e}") from None


def write_scene(scene: Scene, path: str):
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, indent=1)
        fh.write("\n")


def bundled_scene(name: str) -> str:
    """Path of a scene file shipped with the package (e.g. 'two_ray')."""
    here = os.path.dirname(__file__)
    p = os.path.join(here, "scenes", name if name.endswith(".scene") else name + ".scene")
    if not os.path.exists(p):
        raise SceneError(f"no bundled scene named {name!r}")
    return p
