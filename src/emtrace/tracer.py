"""Specular propagation paths: LOS, image-method solving, candidate generation.

Candidate primitive sequences come either from exhaustive enumeration (all
sequences up to a cap) or from launching rays along a Fibonacci lattice and
recording the primitives each ray bounces off; neither looks at a receiver,
so one candidate set serves all receivers of a transmitter. The set is kept
as one int array of primitive ids per order, built once per transmitter.

:func:`trace_links` is the one front end of every path search: for every
receiver the image method mirrors the transmitter across each candidate's
planes and back-solves the interaction points so that the path arrives
exactly at the receiver. The solve and its parallel, segment
fraction, barycentric, same-side and segment-length checks run as one numpy
pass over a chunk of candidates (:data:`CHUNK`, which bounds the
temporaries); only the few survivors are tested for occlusion and turned
into paths. A possible LOS path is added, and the result is
deterministically ordered.

Path topology (which primitives, which paths) is frozen per call. Between
topology changes all geometric quantities are closed-form in the endpoint
positions, which is what :func:`solve_points` exposes for gradient work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .autodiff import DiffScalar
from .bvh import RAY_EPS, Bvh
from .geometry import SPEED_OF_LIGHT, t_add, t_dot, t_scale, t_sub

ENUM_CAP = 10_000_000  # max primitive_count ** max_depth for exhaustive mode
DEFAULT_NUM_RAYS = 4096
MERGE_TOL = 1e-6  # meters; paths with all vertices this close are one path
CHUNK = 2048  # candidates per numpy pass of the image solve
_BARY_TOL = 1e-9
_SIDE_TOL = 1e-12


class TracerError(ValueError):
    pass


@dataclass(frozen=True)
class PropagationPath:
    """One specular (or LOS) path between a transmitter and a receiver."""

    tx: str
    rx: str
    kind: str  # "los" | "specular"
    seq: tuple  # primitive ids, one per interaction (empty for LOS)
    vertices: np.ndarray  # [order+2, 3]: tx, interactions..., rx
    length_m: float
    delay_s: float
    k_dep: np.ndarray  # unit departure direction (at tx)
    k_arr: np.ndarray  # unit arrival direction (propagation into rx)
    normals: np.ndarray  # [order, 3] unit, oriented against the incident segment
    cos_incidence: tuple  # per interaction

    @property
    def order(self) -> int:
        return len(self.seq)


@dataclass
class PathSet:
    """Traced paths as links: one (tx device, rx device, paths) per device pair."""

    scene: object
    max_depth: int
    method: str
    links: list  # as :func:`trace_links` yields them, transmitter by transmitter

    @property
    def paths(self) -> list:
        """Every link's paths, link by link."""
        return [p for _, _, paths in self.links for p in paths]


def _mirror(p, n, c):
    """Mirror point across the plane with unit normal n and offset c."""
    return t_sub(p, t_scale(n, 2.0 * (t_dot(p, n) - c)))


def solve_points(tx, rx, planes):
    """Back-substituted interaction points for a candidate plane chain.

    ``planes`` is a list of (unit normal 3-tuple, offset). Returns
    (points, line_params) where points (tx side first) may be None when a
    segment runs parallel to its plane, and line_params are the segment
    fractions used for validity checks. Works on floats or tape scalars.
    """
    images = [tx]
    for n, c in planes:
        images.append(_mirror(images[-1], n, c))
    pts = [None] * len(planes)
    cur = rx
    params = [None] * len(planes)
    for k in range(len(planes) - 1, -1, -1):
        n, c = planes[k]
        target = images[k + 1]
        seg = t_sub(target, cur)
        denom = t_dot(seg, n)
        dval = denom.value if isinstance(denom, DiffScalar) else denom
        if abs(dval) < 1e-15:
            return None, None
        s = (c - t_dot(cur, n)) / denom
        pts[k] = t_add(cur, t_scale(seg, s))
        params[k] = s
        cur = pts[k]
    return pts, params


def path_from_points(tx_name, rx_name, seq, tx, rx, points, bvh: Bvh):
    """Assemble a PropagationPath from solved interaction points (floats)."""
    chain = [np.asarray(tx, dtype=np.float64)]
    chain += [np.asarray(p, dtype=np.float64) for p in points]
    chain.append(np.asarray(rx, dtype=np.float64))
    verts = np.stack(chain)
    segs = verts[1:] - verts[:-1]
    lens = np.linalg.norm(segs, axis=1)
    dirs = segs / lens[:, None]
    normals = np.zeros((len(seq), 3))
    cosines = []
    for k, prim in enumerate(seq):
        n = bvh.normals[prim]
        ci = -float(dirs[k] @ n)
        if ci < 0.0:
            n = -n
            ci = -ci
        normals[k] = n
        cosines.append(ci)
    total = float(lens.sum())
    return PropagationPath(
        tx=tx_name, rx=rx_name,
        kind="specular" if len(seq) else "los",
        seq=tuple(int(s) for s in seq),
        vertices=verts, length_m=total,
        delay_s=total / SPEED_OF_LIGHT,
        k_dep=dirs[0], k_arr=dirs[-1],
        normals=normals, cos_incidence=tuple(cosines),
    )


def _dot(a, b):
    """Row-wise dot product of [3, m] arrays, summed as :func:`t_dot` does."""
    p = a * b
    return p[0] + p[1] + p[2]


def _solve_batch(tx, rx, seqs, bvh: Bvh):
    """Image solve of the candidates ``seqs`` (int [order, m]) as one pass.

    ``tx`` and ``rx`` are [3, m] endpoint columns, one per candidate (or
    [3, 1], shared); order 0, an empty ``seqs``, is the direct segment.
    Returns (ok [m], points [order, 3, m]): ok marks the candidates whose
    segments are not parallel to their planes, whose segment fractions lie
    in (0, 1), whose points lie inside their triangles, whose neighbouring
    vertices sit on the same side of each plane (reflection, not
    transmission) and whose segments are longer than 2 RAY_EPS. Occlusion
    is not tested. The arithmetic is that of :func:`solve_points`, term by
    term, so the points equal its floats bit for bit.
    """
    order, m = seqs.shape
    planes = [(t[:3], t[3]) for t in (bvh.solve_table[:4, prims] for prims in seqs)]
    images = []
    image = tx
    for n, c in planes:
        image = image - n * (2.0 * (_dot(image, n) - c))
        images.append(image)
    ok = np.ones(m, dtype=bool)
    points = np.empty((order, 3, m))
    cur = rx
    for k in range(order - 1, -1, -1):
        n, c = planes[k]
        tri = bvh.solve_table[4:, seqs[k]]
        v0, e1, e2, (d11, d12, d22, den) = tri[0:3], tri[3:6], tri[6:9], tri[9:]
        seg = images[k] - cur
        denom = _dot(seg, n)
        parallel = np.abs(denom) < 1e-15
        s = (c - _dot(cur, n)) / np.where(parallel, 1.0, denom)
        cur = points[k] = cur + seg * s
        w = cur - v0
        w1, w2 = _dot(w, e1), _dot(w, e2)
        u = (d22 * w1 - d12 * w2) / den
        v = (d11 * w2 - d12 * w1) / den
        ok &= ~parallel & (1e-12 < s) & (s < 1.0 - 1e-12)
        ok &= (u >= -_BARY_TOL) & (v >= -_BARY_TOL) & (u + v <= 1.0 + _BARY_TOL)
    chain = [tx, *points, rx]
    for k, (n, c) in enumerate(planes):
        ok &= (_dot(chain[k], n) - c) * (_dot(chain[k + 2], n) - c) > _SIDE_TOL
    for a, b in zip(chain[:-1], chain[1:]):
        d = b - a
        ok &= np.sqrt(_dot(d, d)) > 2 * RAY_EPS
    return ok, points


def _solve_paths(tx_name, rx_name, tx, rx, seqs, bvh: Bvh):
    """Yield (column, path) for the valid candidates ``seqs``, in column order.

    ``tx`` and ``rx`` are positions, or [3, m] endpoint columns. Solves
    :data:`CHUNK` candidates per pass; only the survivors of the geometric
    checks are tested for occlusion.
    """
    tx, rx = (np.asarray(p, dtype=np.float64).reshape(3, -1) for p in (tx, rx))
    for lo in range(0, seqs.shape[1], CHUNK):
        cols = np.s_[:, lo:lo + CHUNK]
        t, r = (e if e.shape[1] == 1 else e[cols] for e in (tx, rx))
        ok, points = _solve_batch(t, r, seqs[cols], bvh)
        for j in np.flatnonzero(ok):
            pts = list(points[:, :, j])
            # column j of the chunk, or the one shared column
            chain = [t[:, j % t.shape[1]], *pts, r[:, j % r.shape[1]]]
            if not any(bvh.occluded(a, b) for a, b in zip(chain[:-1], chain[1:])):
                yield lo + j, path_from_points(tx_name, rx_name, seqs[:, lo + j],
                                               chain[0], chain[-1], pts, bvh)


def image_solve(tx_name, rx_name, tx_pos, rx_pos, seq, bvh: Bvh):
    """Image-method solve of one candidate sequence; None when invalid.

    Valid means: every interaction point lies inside its triangle, both
    neighbouring vertices sit on the same side of each reflecting plane,
    every segment crossing is a proper reflection (segment fraction in
    (0, 1)), and no segment is occluded. A one-candidate reference for
    tests and the benchmark: the library solves many candidates per call
    through :func:`_solve_paths`.
    """
    seqs = np.array(seq, dtype=np.int32).reshape(len(seq), 1)
    return next((p for _, p in _solve_paths(tx_name, rx_name, tx_pos, rx_pos,
                                            seqs, bvh)), None)


def los_path(bvh: Bvh, tx_dev, rx_dev):
    """LOS path between two devices, or None when the segment is blocked."""
    if np.allclose(tx_dev.position, rx_dev.position):
        raise TracerError(f"tx {tx_dev.name!r} and rx {rx_dev.name!r} coincide")
    if bvh.num_prims and bvh.occluded(tx_dev.position, rx_dev.position):
        return None
    return path_from_points(tx_dev.name, rx_dev.name, (), tx_dev.position,
                            rx_dev.position, [], bvh)


def _enumerated_groups(bvh: Bvh, max_depth: int) -> list:
    """All sequences of 1..max_depth primitives without immediate repeats.

    One int array [order, m] per order, its columns in lexicographic order.
    :func:`candidate_set` calls it with max_depth >= 1 and a non-empty ``bvh``.
    """
    n = bvh.num_prims
    if n ** max_depth > ENUM_CAP:
        raise TracerError(
            f"exhaustive enumeration of {n} primitives at depth {max_depth} "
            f"exceeds the cap of {ENUM_CAP:.0e} sequences; use the fibonacci "
            "ray-launching method instead")
    seqs = np.arange(n, dtype=np.int32)[None, :]
    groups = [seqs]
    others = np.arange(n - 1, dtype=np.int32)
    for _ in range(max_depth - 1):
        # each column, in order, followed by every primitive but its last one
        tails = others[None, :] + (others[None, :] >= seqs[-1][:, None])
        seqs = np.vstack([np.repeat(seqs, n - 1, axis=1), tails.ravel()])
        groups.append(seqs)
    return groups


def enumerate_candidates(bvh: Bvh, max_depth: int):
    """All primitive sequences of length 1..max_depth, no immediate repeats."""
    return [seq for seqs in candidate_set(bvh, None, max_depth)
            for seq in zip(*seqs.tolist())]


def launch_candidates(bvh: Bvh, tx_pos, max_depth: int,
                      num_rays: int = DEFAULT_NUM_RAYS):
    """Candidate sequences hit by Fibonacci-lattice rays from ``tx_pos``.

    Every prefix of each ray's bounce history is collected, so lower-order
    candidates along a deep ray are found too.
    """
    from .geometry import fibonacci_directions

    if num_rays < 1 or max_depth < 1:
        raise TracerError("need num_rays >= 1 and max_depth >= 1")
    found = set()
    if bvh.num_prims == 0:
        return found
    origin0 = np.asarray(tx_pos, dtype=np.float64)
    for d in fibonacci_directions(num_rays):
        origin = origin0
        direction = d
        seq = ()
        for _ in range(max_depth):
            hit = bvh.intersect(origin, direction)
            if hit is None:
                break
            seq = seq + (hit.prim,)
            found.add(seq)
            direction = direction - 2.0 * float(direction @ hit.normal) * hit.normal
            origin = hit.point
    return found


def _merge_coincident(paths):
    """Merge specular paths whose interaction points all coincide.

    Coplanar triangles can produce one physical path under several ids;
    the representative with the smallest sequence wins. Only paths of one
    order merge, and ``paths`` holds each order's paths in ascending
    sequence order (the column order of :func:`candidate_set`), so the
    first path kept of a set of twins is already the smallest.
    """
    kept = []
    for p in paths:
        for q in kept:
            if (p.kind == q.kind and p.order == q.order and p.order > 0
                    and np.max(np.abs(p.vertices - q.vertices)) < MERGE_TOL):
                break
        else:
            kept.append(p)
    return kept


def candidate_set(bvh: Bvh, tx_pos, max_depth: int,
                  method: str = "exhaustive",
                  num_rays: int = DEFAULT_NUM_RAYS) -> list:
    """Duplicate-free candidate sequences from one transmitter position.

    Returns one int array [order, m] per order, by ascending order, whose
    columns are the sequences in lexicographic order. ``tx_pos`` is read by
    the fibonacci method only.
    """
    if method not in ("exhaustive", "fibonacci"):
        raise TracerError(f"unknown path-finding method {method!r}")
    if max_depth < 0:
        raise TracerError(f"max_depth must be >= 0, got {max_depth}")
    if max_depth < 1 or not bvh.num_prims:
        return []
    if method == "exhaustive":  # unique by construction, no tuples made
        return _enumerated_groups(bvh, max_depth)
    found = sorted(launch_candidates(bvh, tx_pos, max_depth, num_rays))
    found.sort(key=len)  # stable: by order, lexicographic within each order
    return [np.fromiter(itertools.chain.from_iterable(group), dtype=np.int32)
            .reshape(-1, order).T
            for order, group in itertools.groupby(found, key=len)]


def trace_links(bvh: Bvh, tx_dev, receivers, max_depth: int, method: str,
                num_rays: int):
    """Yield (tx_dev, rx, paths) per receiver, all solved from one candidate set.

    Each link's paths are valid, deduplicated and sorted: LOS first, then
    by order and sequence. Every path search of the package runs here.
    """
    candidates = candidate_set(bvh, tx_dev.position, max_depth, method, num_rays)
    for rx in receivers:
        los = los_path(bvh, tx_dev, rx)
        paths = [] if los is None else [los]
        for seqs in candidates:
            paths += [p for _, p in _solve_paths(tx_dev.name, rx.name, tx_dev.position,
                                                 rx.position, seqs, bvh)]
        paths = _merge_coincident(paths)
        paths.sort(key=lambda p: (0 if p.kind == "los" else 1, p.order, p.seq))
        yield tx_dev, rx, paths


def compute_paths_between(scene, bvh: Bvh, tx_dev, rx_dev, max_depth: int,
                          method: str = "exhaustive",
                          num_rays: int = DEFAULT_NUM_RAYS):
    """All valid paths from one tx to one rx, deduplicated and sorted."""
    return next(trace_links(bvh, tx_dev, [rx_dev], max_depth, method, num_rays))[2]


def compute_paths(scene, bvh: Bvh, max_depth: int, method: str = "exhaustive",
                  num_rays: int = DEFAULT_NUM_RAYS) -> PathSet:
    """Paths for every (tx, rx) device pair, searching once per transmitter."""
    txs, rxs = scene.transmitters, scene.receivers
    if not txs or not rxs:
        raise TracerError("scene needs at least one transmitter and one receiver")
    links = [link for tx in txs
             for link in trace_links(bvh, tx, rxs, max_depth, method, num_rays)]
    return PathSet(scene=scene, max_depth=max_depth, method=method, links=links)


def dump_paths(pathset: PathSet, normalize_delays: bool = False) -> str:
    """Human- and machine-readable path records (the CLI trace format).

    With ``normalize_delays`` each link's delays are shifted so its first
    arrival is zero; absolute delays are the default.
    """
    lines = ["# tx rx type order length_m delay_s primitive_ids vertices"]
    for _, _, paths in pathset.links:
        first = min((p.delay_s for p in paths), default=0.0) if normalize_delays else 0.0
        for p in paths:
            verts = ";".join(",".join(repr(float(x)) for x in v) for v in p.vertices)
            prims = ",".join(str(s) for s in p.seq) if p.seq else "-"
            lines.append(f"{p.tx} {p.rx} {p.kind} {p.order} {p.length_m!r} "
                         f"{p.delay_s - first!r} {prims} {verts}")
    return "\n".join(lines) + "\n"
