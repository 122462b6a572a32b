"""Deterministic top-down raster output: coverage maps and path overlays.

PNG encoding is done directly over zlib so identical inputs always produce
byte-identical files; there is no dependency on an imaging library.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .channel import FLOOR_DB

COVERAGE_PX = 256  # least edge of a coverage raster, in pixels
PATHS_PX = 512  # edge of the square path overlay, in pixels

# dark-blue -> magenta -> orange -> yellow ramp, interpolated to 256 entries
_RAMP_STOPS = [
    (0.00, (13, 8, 135)),
    (0.25, (126, 3, 168)),
    (0.50, (204, 71, 120)),
    (0.75, (248, 149, 64)),
    (1.00, (240, 249, 33)),
]


def _build_ramp() -> np.ndarray:
    lut = np.zeros((256, 3), dtype=np.uint8)
    xs = np.array([s[0] for s in _RAMP_STOPS])
    cols = np.array([s[1] for s in _RAMP_STOPS], dtype=np.float64)
    t = np.linspace(0.0, 1.0, 256)
    for ch in range(3):
        lut[:, ch] = np.clip(np.interp(t, xs, cols[:, ch]), 0, 255).astype(np.uint8)
    return lut


_RAMP = _build_ramp()


def write_png(path: str, rgb: np.ndarray):
    """Write an [h, w, 3] uint8 array as an 8-bit truecolor PNG."""
    h, w = rgb.shape[:2]
    raw = b"".join(b"\x00" + rgb[y].tobytes() for y in range(h))

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data)))

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (b"\x89PNG\r\n\x1a\n"
               + chunk(b"IHDR", header)
               + chunk(b"IDAT", zlib.compress(raw, 9))
               + chunk(b"IEND", b""))
    with open(path, "wb") as fh:
        fh.write(payload)


def colorize(values_db: np.ndarray) -> np.ndarray:
    """Map dB values to the fixed color ramp; :data:`FLOOR_DB` maps to index 0."""
    top = float(values_db.max())
    if top <= FLOOR_DB:
        top = FLOOR_DB + 1.0
    t = np.clip((values_db - FLOOR_DB) / (top - FLOOR_DB), 0.0, 1.0)
    idx = np.minimum((t * 255.0).astype(np.int64), 255)
    return _RAMP[idx]


def render_coverage(cmap) -> np.ndarray:
    """Coverage map raster; grid row iy=0 (min y) ends up at the image bottom."""
    rgb = colorize(cmap.to_db())[::-1, :, :]  # put +y up
    scale = max(1, COVERAGE_PX // max(cmap.grid.nx, cmap.grid.ny))
    return np.repeat(np.repeat(rgb, scale, axis=0), scale, axis=1)


_PATH_COLORS = [(255, 80, 80), (80, 255, 120), (90, 160, 255), (255, 220, 80),
                (230, 120, 255), (120, 255, 255)]


def _draw_line(img: np.ndarray, x0: float, y0: float, x1: float, y1: float, color):
    steps = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
    xs = np.linspace(x0, x1, steps + 1)
    ys = np.linspace(y0, y1, steps + 1)
    h, w = img.shape[:2]
    for x, y in zip(xs, ys):
        xi, yi = int(round(x)), int(round(y))
        if 0 <= xi < w and 0 <= yi < h:
            img[yi, xi] = color


def render_paths(pathset) -> np.ndarray:
    """Top-down orthographic overlay of path polylines (ground-plane projection).

    Each path is one polyline through its vertices' (x, y) coordinates,
    colored by its index; devices appear as endpoints of the polylines.
    """
    img = np.zeros((PATHS_PX, PATHS_PX, 3), dtype=np.uint8)
    img[:, :] = (24, 24, 32)
    pts = np.vstack([p.vertices[:, :2] for p in pathset.paths]) \
        if pathset.paths else np.zeros((1, 2))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float((hi - lo).max()), 1e-9)
    margin = 0.05 * span
    lo = lo - margin
    span = span + 2 * margin

    def to_px(v):
        x = (v[0] - lo[0]) / span * (PATHS_PX - 1)
        y = (PATHS_PX - 1) - (v[1] - lo[1]) / span * (PATHS_PX - 1)
        return x, y

    for i, p in enumerate(pathset.paths):
        color = _PATH_COLORS[i % len(_PATH_COLORS)]
        xy = [to_px(v) for v in p.vertices]
        for (x0, y0), (x1, y1) in zip(xy[:-1], xy[1:]):
            _draw_line(img, x0, y0, x1, y1, color)
    return img
