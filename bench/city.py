"""Seeded procedural city blocks for the benchmark scenes.

A city is an ``n`` x ``n`` grid of square blocks separated by streets, on
one ground quad. Each block holds one building: a closed box (12
triangles, outward winding) whose footprint is the block shrunk by seeded
setbacks and whose height and facade material are seeded. The layout
depends only on the seed, so one seed always yields the same scene file.

Street points lie on street centre bands, which no building reaches, so
devices placed there are never inside a building.
"""

from __future__ import annotations

import random

BLOCK_M = 20.0  # block side
STREET_M = 12.0  # street width
MIN_HEIGHT_M = 8.0
MAX_HEIGHT_M = 32.0
MAX_SETBACK_M = 3.0

MATERIALS = [
    # ITU-R P.2040 style frequency laws: eps_r = a f^b, sigma = c f^d (f in GHz)
    {"name": "ground_mat", "model": "power_law",
     "params": {"a": 15.0, "b": -0.1, "c": 0.035, "d": 1.63}, "trainable": False},
    {"name": "concrete", "model": "power_law",
     "params": {"a": 5.24, "b": 0.0, "c": 0.0462, "d": 0.7822}, "trainable": False},
    {"name": "brick", "model": "power_law",
     "params": {"a": 3.91, "b": 0.0, "c": 0.0238, "d": 0.16}, "trainable": False},
]

# corner order of a box: bottom ring then top ring, counter-clockwise seen from above
_BOX_TRIANGLES = [
    0, 2, 1, 0, 3, 2,  # bottom (normal -z)
    4, 5, 6, 4, 6, 7,  # top (+z)
    0, 1, 5, 0, 5, 4,  # south (-y)
    1, 2, 6, 1, 6, 5,  # east (+x)
    2, 3, 7, 2, 7, 6,  # north (+y)
    3, 0, 4, 3, 4, 7,  # west (-x)
]


def pitch() -> float:
    return BLOCK_M + STREET_M


def half_extent(n: int) -> float:
    """Half the side of the built area; streets centre on multiples of pitch."""
    return n * pitch() / 2.0


def box(x0, y0, x1, y1, height):
    """(flat vertices, flat triangle indices) of a closed axis-aligned box."""
    corners = [(x0, y0, 0.0), (x1, y0, 0.0), (x1, y1, 0.0), (x0, y1, 0.0),
               (x0, y0, height), (x1, y0, height), (x1, y1, height), (x0, y1, height)]
    return [c for corner in corners for c in corner], list(_BOX_TRIANGLES)


def city_dict(seed, n: int = 4, frequency_hz: float = 3.5e9,
              tx_array=None, rx_array=None) -> dict:
    """Scene dictionary (the emtrace scene file schema) of a seeded city.

    ``seed`` is anything ``random.Random`` accepts (an int or a string).
    """
    rng = random.Random(seed)
    h = half_extent(n)
    g = h + STREET_M
    objects = [{"name": "ground", "material": "ground_mat",
                "vertices_m": [-g, -g, 0.0, g, -g, 0.0, g, g, 0.0, -g, g, 0.0],
                "triangles": [0, 1, 2, 0, 2, 3]}]
    for i in range(n):
        for j in range(n):
            bx = -h + i * pitch() + STREET_M / 2.0
            by = -h + j * pitch() + STREET_M / 2.0
            s = [round(rng.uniform(0.0, MAX_SETBACK_M), 1) for _ in range(4)]
            height = round(rng.uniform(MIN_HEIGHT_M, MAX_HEIGHT_M), 1)
            material = rng.choice(["concrete", "brick"])
            verts, tris = box(bx + s[0], by + s[1], bx + BLOCK_M - s[2],
                              by + BLOCK_M - s[3], height)
            objects.append({"name": f"building_{i}_{j}", "material": material,
                            "vertices_m": verts, "triangles": tris})
    iso = {"pattern": "iso", "polarization": "V"}
    return {"frequency_hz": frequency_hz, "synthetic_array": True,
            "materials": MATERIALS, "objects": objects,
            "tx_array": dict(tx_array or iso), "rx_array": dict(rx_array or iso),
            "devices": []}


def street_point(rng: random.Random, n: int, z: float):
    """A point on an inner street's centre band (within 40% of its half width).

    Inner streets run between two rows of blocks, so every point has
    buildings on both sides; the city's edge streets are not used.
    """
    h = half_extent(n)
    k = rng.randrange(1, n)
    across = -h + k * pitch() + rng.uniform(-0.4, 0.4) * STREET_M / 2.0
    along = rng.uniform(-h, h)
    if rng.random() < 0.5:
        return (across, along, z)
    return (along, across, z)


def building_boxes(scene_dict: dict):
    """(x0, y0, x1, y1, height) of every building, read back from the vertices."""
    out = []
    for obj in scene_dict["objects"]:
        if not obj["name"].startswith("building_"):
            continue
        v = obj["vertices_m"]
        xs, ys, zs = v[0::3], v[1::3], v[2::3]
        out.append((min(xs), min(ys), max(xs), max(ys), max(zs)))
    return out

