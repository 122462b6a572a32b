"""Property tests over random device placements (hypothesis, derandomized).

Examples are drawn from a fixed seed and no example database is kept, so
the suite runs the same cases every time.
"""

import dataclasses
import math

import numpy as np
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import brute_force_first_hit, make_scene, projected_sq_error, quad_object
from emtrace import bvh as accel
from emtrace.autodiff import DiffComplex, Tape
from emtrace.channel import point_path_gain, probe_receiver, subcarrier_frequencies
from emtrace.em import (EvalContext, PathKernel, _fresnel_arrays, compute_gains,
                        element_field, fresnel, geometry_from_path, path_materials,
                        synthetic_phase, transfer)
from emtrace.geometry import mat_vec
from emtrace.optim import _FrozenNmse
from emtrace.scene import (AntennaArray, RadioDevice, RadioMaterial, bundled_scene,
                           eta_per_sigma, load_scene)
from emtrace.tracer import (CHUNK, MERGE_TOL, _solve_paths, candidate_set,
                            compute_paths, compute_paths_between,
                            enumerate_candidates, image_solve, solve_points)

BOX = load_scene(bundled_scene("box"))  # a 10 x 8 x 4 m room without a ceiling
TREE = accel.build(BOX)
NUM_RAYS = 256

inside_box = st.tuples(st.floats(0.5, 9.5), st.floats(0.5, 7.5), st.floats(0.3, 3.7))


def _key(p):
    return (p.tx, p.rx, p.kind, p.seq, p.vertices.tobytes())


@settings(derandomize=True, deadline=None, database=None, max_examples=15)
@given(tx=inside_box, rxs=st.lists(inside_box, min_size=2, max_size=3))
def test_shared_candidates_match_per_pair_and_fibonacci_within_exhaustive(tx, rxs):
    assume(all(np.linalg.norm(np.subtract(tx, r)) > 0.1 for r in rxs))
    tx_dev = RadioDevice("tx", "tx", np.array(tx))
    rx_devs = [RadioDevice("rx", f"rx{i}", np.array(r)) for i, r in enumerate(rxs)]
    scene = dataclasses.replace(BOX, devices=[tx_dev] + rx_devs)
    found = {}
    for method in ("exhaustive", "fibonacci"):
        shared = compute_paths(scene, TREE, 2, method, NUM_RAYS).paths
        per_pair = [p for rx in rx_devs for p in
                    compute_paths_between(scene, TREE, tx_dev, rx, 2, method, NUM_RAYS)]
        assert [_key(p) for p in shared] == [_key(p) for p in per_pair]
        found[method] = shared
    # every launched path is one the exhaustive search finds too; coplanar
    # triangles may name it by another sequence, so compare vertices
    for p in found["fibonacci"]:
        assert any(q.rx == p.rx and q.order == p.order
                   and np.max(np.abs(q.vertices - p.vertices)) < MERGE_TOL
                   for q in found["exhaustive"])


def _reference_accepts(tx, rx, seq):
    """Per-candidate image solve with explicit checks; brute-force occlusion."""
    planes = [(tuple(float(x) for x in TREE.normals[p]), float(TREE.plane_offset[p]))
              for p in seq]
    points, params = solve_points(tx, rx, planes)
    if points is None or not all(1e-12 < s < 1.0 - 1e-12 for s in params):
        return None
    for prim, p in zip(seq, points):
        o, a, b = TREE.v0[prim], TREE.e1[prim], TREE.e2[prim]
        w = [p[i] - o[i] for i in range(3)]
        d11 = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
        d12 = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
        d22 = b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
        w1 = w[0] * a[0] + w[1] * a[1] + w[2] * a[2]
        w2 = w[0] * b[0] + w[1] * b[1] + w[2] * b[2]
        den = d11 * d22 - d12 * d12
        u = (d22 * w1 - d12 * w2) / den
        v = (d11 * w2 - d12 * w1) / den
        if not (u >= -1e-9 and v >= -1e-9 and u + v <= 1.0 + 1e-9):
            return None
    chain = [tx, *points, rx]
    for k, (n, c) in enumerate(planes):
        side = [sum(q[i] * n[i] for i in range(3)) - c for q in (chain[k], chain[k + 2])]
        if side[0] * side[1] <= 1e-12:
            return None
    for a, b in zip(chain[:-1], chain[1:]):
        d = np.subtract(b, a)
        dist = float(np.linalg.norm(d))
        if dist <= 2 * accel.RAY_EPS or brute_force_first_hit(
                BOX, a, d / dist, accel.RAY_EPS, dist - accel.RAY_EPS) is not None:
            return None
    return points


def _batched_paths(tree, tx, rx, max_depth):
    """Accepted paths of the batched solver, before coincident paths merge."""
    return [p for seqs in candidate_set(tree, tx, max_depth)
            for _, p in _solve_paths("tx", "rx", tuple(tx), tuple(rx), seqs, tree)]


def _off_faces(lo, hi, size):  # a coordinate at least 5 cm off the box faces
    return st.one_of(st.floats(lo, -0.05), st.floats(0.05, size - 0.05),
                     st.floats(size + 0.05, hi))


# in and around the open-topped box, so that transmissions through a wall
# and reflections seen from outside are candidates too
around_box = st.tuples(_off_faces(-4.0, 14.0, 10.0), _off_faces(-4.0, 12.0, 8.0),
                       _off_faces(-2.0, 7.0, 4.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(tx=around_box, method=st.sampled_from(["exhaustive", "fibonacci"]),
       max_depth=st.integers(1, 3))
def test_candidate_columns_are_lexicographic_within_each_order(tx, method, max_depth):
    # _merge_coincident keeps the first of coplanar twins as the smallest
    # sequence because trace_links sees each order in this column order
    groups = candidate_set(TREE, tx, max_depth, method, NUM_RAYS)
    assert [seqs.shape[0] for seqs in groups] == list(range(1, len(groups) + 1))
    for seqs in groups:
        cols = [tuple(c) for c in seqs.T.tolist()]
        assert cols == sorted(set(cols))


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(tx=around_box, rx=around_box)
def test_batched_solve_matches_per_candidate_reference(tx, rx):
    assume(np.linalg.norm(np.subtract(tx, rx)) > 0.1)
    accepted = {}
    for seq in enumerate_candidates(TREE, 2):
        points = _reference_accepts(tx, rx, seq)
        if points is not None:
            accepted[seq] = points
    paths = _batched_paths(TREE, tx, rx, 2)
    assert sorted(p.seq for p in paths) == sorted(accepted)
    for p in paths:  # the batched points are solve_points' floats, bit for bit
        assert p.vertices[1:-1].tobytes() == np.array(accepted[p.seq]).tobytes()


def test_candidates_beyond_one_chunk_match_one_candidate_solves():
    # two facing walls of 12 quads each: 48 triangles, 2256 order-2 candidates
    walls = [quad_object(f"w{x}_{i}", "wall", [(x, i, 0), (x, i + 1, 0),
                                               (x, i + 1, 3), (x, i, 3)])
             for x in (0.0, 6.0) for i in range(12)]
    scene = make_scene(objects=walls, materials=[RadioMaterial("wall", "constant")])
    tree = accel.build(scene)
    tx, rx = (1.5, 11.2, 1.4), (4.0, 10.1, 1.7)
    groups = candidate_set(tree, tx, 2)
    assert groups[-1].shape[1] > CHUNK
    batched = _batched_paths(tree, tx, rx, 2)
    single = [p for seqs in groups for seq in seqs.T.tolist()
              if (p := image_solve("tx", "rx", tx, rx, seq, tree)) is not None]
    assert [_key(p) for p in batched] == [_key(p) for p in single]
    # some accepted candidate sits in the second chunk of its group
    order2 = groups[-1].T.tolist()
    assert any(order2.index(list(p.seq)) >= CHUNK for p in batched if p.order == 2)
    # the same endpoints given as one column per candidate, across the chunks
    m = groups[-1].shape[1]
    columns = [np.tile(np.reshape(end, (3, 1)), m) for end in (tx, rx)]
    per_column = _solve_paths("tx", "rx", *columns, groups[-1], tree)
    shared = _solve_paths("tx", "rx", tx, rx, groups[-1], tree)
    assert [(c, _key(p)) for c, p in per_column] == [(c, _key(p)) for c, p in shared]


angles = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)
element = st.tuples(st.sampled_from(["tr38901", "dipole"]), st.floats(-math.pi, math.pi))
elements = st.lists(element, min_size=1, max_size=2)
# conductivities below 1e-9 S/m can leave a near-vacuum wall reflecting
# subnormal gains, which carry too few bits for a relative comparison
material = st.tuples(st.floats(1.0, 20.0), st.one_of(st.just(0.0), st.floats(1e-9, 1.0)))


def _two_material_box(tx_dev, rx_dev, params):
    """The box with the floor and the walls in their own materials."""
    return dataclasses.replace(
        BOX, devices=[tx_dev, rx_dev],
        objects=[dataclasses.replace(o, material="floor_mat" if o.name == "floor"
                                     else "wall_mat") for o in BOX.objects],
        materials={n: RadioMaterial(n, "constant", eps_r=e, sigma=s)
                   for n, (e, s) in params.items()})


# without the explain phase, which after a failure reruns hundreds of examples
@settings(derandomize=True, deadline=None, database=None, max_examples=20,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(tx=inside_box, rx=inside_box, tx_ypr=angles, rx_ypr=angles,
       tx_els=elements, rx_els=elements, floor=material, walls=material)
def test_path_kernel_matches_transfer_and_tape_gradient(tx, rx, tx_ypr, rx_ypr,
                                                         tx_els, rx_els, floor, walls):
    assume(np.linalg.norm(np.subtract(tx, rx)) > 0.1)
    tx_dev = RadioDevice("tx", "tx", np.array(tx), orientation=tx_ypr)
    rx_dev = RadioDevice("rx", "rx", np.array(rx), orientation=rx_ypr)
    # floor and walls get their own materials, so order-2 paths can mix them
    params = {"floor_mat": floor, "wall_mat": walls}
    scene = _two_material_box(tx_dev, rx_dev, params)
    paths = compute_paths_between(scene, TREE, tx_dev, rx_dev, 2)
    assume({p.order for p in paths} == {0, 1, 2})

    kernel = PathKernel(scene, TREE, [(tx_dev, rx_dev, paths)], tx_els, rx_els)
    ctx = EvalContext(scene)
    eta = kernel.etas(ctx)
    gains = kernel.gains(eta)
    # world-axis tx fields: the frozen vector w with a = w . f_tx
    fields = PathKernel(scene, TREE, [(tx_dev, rx_dev, paths)], None, rx_els).gains(eta)
    rows = ctx.rotation_rows(tx_dev)
    for q, p in enumerate(paths):
        geom = geometry_from_path(p)
        for i, (rx_pat, rx_slant) in enumerate(rx_els):
            for j, (tx_pat, tx_slant) in enumerate(tx_els):
                ref = transfer(ctx, geom, path_materials(scene, TREE, p), tx_dev, rx_dev,
                               tx_pat, rx_pat, tx_slant, rx_slant).to_complex()
                assert abs(gains[i, j, q] - ref) <= 1e-12 * abs(ref)
                # the frozen field reproduces the gain from the tx field alone
                f_tx = element_field(tx_pat, tx_slant, rows, kernel.k_dep[q])
                assert abs(fields[i, :, q] @ f_tx - ref) <= 1e-12 * abs(ref)

    # the pull-back onto the etas sums over the element pairs
    rng = np.random.RandomState(6)
    grad_a = rng.randn(*gains.shape) + 1j * rng.randn(*gains.shape)
    want = sum(PathKernel(scene, TREE, [(tx_dev, rx_dev, paths)], [t], [r]).vjp(eta, grad_a[i, j])
               for i, r in enumerate(rx_els) for j, t in enumerate(tx_els))
    assert np.abs(kernel.vjp(eta, grad_a) - want).max() <= 1e-12 * np.abs(want).max()

    # NMSE gradient: kernel VJP against the scalar transfer on the tape, for
    # the first element pair
    tx_el, rx_el = tx_els[0], rx_els[0]
    kernel = PathKernel(scene, TREE, [(tx_dev, rx_dev, paths)], [tx_el], [rx_el])
    f = subcarrier_frequencies(32, 1e6)
    basis = np.exp(-2j * np.pi * f[:, None] * np.array([p.delay_s for p in paths])[None, :])
    rng = np.random.RandomState(5)
    target = ((rng.randn(len(f)) + 1j * rng.randn(len(f)))
              * np.abs(basis @ kernel.gains(eta)[0, 0]).max())
    loss, grad_eta = _FrozenNmse(kernel, [paths], f, [target])(eta, with_grad=True)
    tape = Tape()
    leaves = {n: (tape.leaf(e, f"{n}:eps_r"), tape.leaf(s, f"{n}:sigma"))
              for n, (e, s) in params.items()}
    tape_ctx = EvalContext(scene, material_values=leaves)
    gains = [transfer(tape_ctx, geometry_from_path(p), path_materials(scene, TREE, p),
                      tx_dev, rx_dev, tx_el[0], rx_el[0], tx_el[1], rx_el[1]) for p in paths]
    norm2 = float(np.vdot(target, target).real)
    ref_loss = projected_sq_error(tape, gains, basis, target) / norm2
    assert abs(loss - ref_loss.value) <= 1e-12 * ref_loss.value
    ref_grad = tape.gradient(ref_loss)
    got = {}
    for n, g in zip(kernel.materials, grad_eta):
        got[f"{n}:eps_r"] = g.real
        got[f"{n}:sigma"] = g.imag * eta_per_sigma(scene.frequency_hz)
    # relative to the largest partial: a partial whose path terms cancel
    # keeps only the absolute accuracy of the terms
    scale = max(abs(g) for g in ref_grad.values())
    for name, want in ref_grad.items():
        assert abs(got.get(name, 0.0) - want) <= 1e-9 * scale


arrays = st.builds(AntennaArray, num_rows=st.integers(1, 2), num_cols=st.integers(1, 2),
                   vertical_spacing=st.floats(0.3, 2.0), horizontal_spacing=st.floats(0.3, 2.0),
                   pattern=st.sampled_from(["tr38901", "dipole"]),
                   polarization=st.sampled_from(["V", "H", "VH", "cross"]))


# rotations off the axes: unrotated, an element's pattern pole (where the
# theta/phi parametrization has no derivative) lines up with axis-aligned
# paths, and a symmetric link has a zero gradient, all rounding noise
generic_angles = st.tuples(*[st.floats(0.1, 3.0)] * 3)


@settings(derandomize=True, deadline=None, database=None, max_examples=10,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(tx=inside_box, rx=inside_box, tx_ypr=generic_angles, array=arrays, floor=material,
       walls=material)
def test_point_path_gain_orientation_gradient_matches_transfer(tx, rx, tx_ypr, array,
                                                                floor, walls):
    assume(np.linalg.norm(np.subtract(tx, rx)) > 0.1)
    tx_dev = RadioDevice("tx", "tx", np.array(tx), orientation=tx_ypr)
    probe = probe_receiver(rx)
    scene = dataclasses.replace(_two_material_box(tx_dev, probe, {"floor_mat": floor,
                                                                  "wall_mat": walls}),
                                devices=[tx_dev], tx_array=array)
    paths = compute_paths_between(scene, TREE, tx_dev, probe, 2)
    assume(len(paths) > 1)
    offsets, slants = array.element_layout(scene.wavelength)
    keys = ("yaw", "pitch", "roll")
    for tx_mode in ("central", "array"):
        tape = Tape()
        ctx = EvalContext(scene, orientations={"tx": tuple(
            tape.leaf(a, k) for a, k in zip(tx_ypr, keys))})
        got, _ = point_path_gain(scene, TREE, tx_dev, rx, 2, ctx=ctx, frozen_paths=paths,
                                 tx_mode=tx_mode)
        got_grad = tape.gradient(got)

        # reference: transfer per element on the tape, coherent sum at the
        # elements' plane-wave phases
        tape = Tape()
        ctx = EvalContext(scene, orientations={"tx": tuple(
            tape.leaf(a, k) for a, k in zip(tx_ypr, keys))})
        rows = ctx.rotation_rows(tx_dev)
        if tx_mode == "central":
            elements = [(array.slants[0], None)]
        else:
            elements = [(float(s), mat_vec(rows, o)) for s, o in zip(slants, offsets.tolist())]
        ref = 0.0
        for p in paths:
            geom = geometry_from_path(p)
            mats = path_materials(scene, TREE, p)
            for pol in ("_probe_theta", "_probe_phi"):
                a = DiffComplex(0.0, 0.0)
                for slant, off in elements:
                    g = transfer(ctx, geom, mats, tx_dev, probe, array.pattern, pol,
                                 slant, 0.0)
                    a = a + (g if off is None else
                             g * synthetic_phase(geom.k_dep, off, scene.wavelength))
                ref = ref + a.abs2()
        ref_grad = tape.gradient(ref)
        assert abs(got.value - ref.value) <= 1e-12 * ref.value
        # relative to the largest partial, and to 1e-3 of the gain per
        # radian at least: a stationary gain (only LOS, at the pattern's
        # floor, say) has partials of rounding size only
        scale = max(max(abs(g) for g in ref_grad.values()), 1e-3 * ref.value)
        for k in keys:
            assert abs(got_grad[k] - ref_grad[k]) <= 1e-9 * scale


def test_padded_chain_matches_one_path_kernels():
    # orders 0-3 in one kernel: paths shorter than 3 interactions are padded
    tx_dev = RadioDevice("tx", "tx", np.array([2.3, 1.7, 1.9]), orientation=(0.4, -0.3, 0.2))
    rx_dev = RadioDevice("rx", "rx", np.array([7.6, 5.9, 1.2]), orientation=(2.1, 0.3, -0.5))
    scene = _two_material_box(tx_dev, rx_dev, {"floor_mat": (4.5, 0.03), "wall_mat": (6.0, 0.4)})
    paths = compute_paths_between(scene, TREE, tx_dev, rx_dev, 3)
    assert {p.order for p in paths} == {0, 1, 2, 3}
    ctx = EvalContext(scene)
    rx_els = [("dipole", 0.3), ("tr38901", 1.1)]
    for tx_els in ([("tr38901", -0.4), ("dipole", 0.7)], None):
        with np.errstate(all="raise"):
            kernel = PathKernel(scene, TREE, [(tx_dev, rx_dev, paths)], tx_els, rx_els)
            eta = kernel.etas(ctx)
            gains = kernel.gains(eta)
            rng = np.random.RandomState(3)
            grad_a = rng.randn(*gains.shape) + 1j * rng.randn(*gains.shape)
            pulled = kernel.vjp(eta, grad_a)
            want = dict.fromkeys(kernel.materials, 0j)
            for q, p in enumerate(paths):
                one = PathKernel(scene, TREE, [(tx_dev, rx_dev, [p])], tx_els, rx_els)
                one_eta = one.etas(ctx)
                assert one.gains(one_eta)[:, :, 0].tobytes() == gains[:, :, q].tobytes()
                for m, g in zip(one.materials, one.vjp(one_eta, grad_a[:, :, q:q + 1])):
                    want[m] += g
        want = np.array([want[m] for m in kernel.materials])
        assert np.abs(pulled - want).max() <= 1e-12 * np.abs(want).max()


device_element = st.tuples(inside_box, angles, element)


# the explain phase is left out as above
@settings(derandomize=True, deadline=None, database=None, max_examples=20,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(a=device_element, b=device_element, floor=material, walls=material)
def test_swapping_tx_and_rx_reverses_paths_and_keeps_coefficients(a, b, floor, walls):
    assume(np.linalg.norm(np.subtract(a[0], b[0])) > 0.1)
    coefficients = []
    for (tx, tx_ypr, tx_el), (rx, rx_ypr, rx_el) in ((a, b), (b, a)):
        tx_dev = RadioDevice("tx", "tx", np.array(tx), orientation=tx_ypr)
        rx_dev = RadioDevice("rx", "rx", np.array(rx), orientation=rx_ypr)
        scene = _two_material_box(tx_dev, rx_dev, {"floor_mat": floor, "wall_mat": walls})
        paths = compute_paths_between(scene, TREE, tx_dev, rx_dev, 2)
        kernel = PathKernel(scene, TREE, [(tx_dev, rx_dev, paths)], [tx_el], [rx_el])
        coefficients.append(dict(zip((p.seq for p in paths),
                                     kernel.gains(kernel.etas(EvalContext(scene)))[0, 0])))
    forward, backward = coefficients
    assert sorted(forward) == sorted(seq[::-1] for seq in backward)
    scale = max(abs(g) for g in forward.values())
    for seq, g in forward.items():
        assert abs(backward[seq[::-1]] - g) <= 1e-10 * scale


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(rows=st.lists(st.tuples(st.floats(1.0, 1e3), st.floats(0.0, 1e4),
                               st.floats(0.0, 1.0, exclude_min=True)), min_size=1, max_size=20))
def test_reflection_coefficients_are_passive(rows):
    eps_r, sigma, cos = (np.array(c) for c in zip(*rows))
    eta = eps_r + 1j * sigma * eta_per_sigma(BOX.frequency_hz)
    bound = 1.0 + 1e-12
    r_te, r_tm, _ = _fresnel_arrays(eta, cos)
    assert np.all(np.abs(r_te) <= bound) and np.all(np.abs(r_tm) <= bound)
    for e, c in zip(eta.tolist(), cos.tolist()):
        assert all(abs(r.to_complex()) <= bound for r in fresnel(e, c))


# -- the image-source lattice of the box room ----------------------------------

ROOM = (10.0, 8.0)  # the box's wall spacing along x and y


def _lattice(tx, rx, max_depth):
    """{(n_x, n_y, n_z): [image - rx, ...]} over the images of ``tx`` with <= max_depth bounces.

    The image method of Allen and Berkley (JASA 65(4), 1979) for the box's
    walls at x = 0, L_x and y = 0, L_y and its floor at z = 0 (the top is
    open): along x the images sit at 2 m L + x after |2m| wall bounces and
    at 2 m L - x after |2m - 1|, likewise along y, and at -z after the one
    floor bounce. Every image is exactly one valid path: the unfolded path
    never rises above the higher device, so each wall hit lies on a wall.
    """
    axes = [[(abs(2 * m), 2 * m * size + c) for m in range(-max_depth, max_depth + 1)]
            + [(abs(2 * m - 1), 2 * m * size - c) for m in range(-max_depth, max_depth + 2)]
            for c, size in zip(tx[:2], ROOM)]
    axes.append([(0, tx[2]), (1, -tx[2])])
    images = {}
    for nx, x in axes[0]:
        for ny, y in axes[1]:
            for nz, z in axes[2]:
                if nx + ny + nz <= max_depth:
                    images.setdefault((nx, ny, nz), []).append(np.subtract((x, y, z), rx))
    return images


def _crossings(rx, delta):
    """Distances from ``rx`` at which the unfolded path to ``rx + delta`` meets a face plane."""
    d = float(np.linalg.norm(delta))
    out = [-rx[2] / delta[2] * d] if rx[2] + delta[2] < 0.0 else []
    for axis, size in enumerate(ROOM):
        lo, hi = sorted((rx[axis], rx[axis] + delta[axis]))
        out += [(k * size - rx[axis]) / delta[axis] * d
                for k in range(math.ceil(lo / size), math.floor(hi / size) + 1)]
    return sorted(out)


def _bounces(path):
    """(n_x, n_y, n_z): the path's bounces off x-walls, y-walls and the floor."""
    axes = [int(np.argmax(np.abs(TREE.normals[prim]))) for prim in path.seq]
    return tuple(axes.count(k) for k in range(3))


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(tx=inside_box, rx=inside_box, max_depth=st.integers(1, 3), level=st.booleans())
def test_box_paths_are_the_image_source_lattice(tx, rx, max_depth, level):
    if level:  # equal heights: a wall-only path stays horizontal and pure TE
        rx = (rx[0], rx[1], tx[2])
    assume(np.linalg.norm(np.subtract(tx, rx)) > 0.1)
    iso_v = AntennaArray(pattern="iso", polarization="V")
    scene = dataclasses.replace(BOX, tx_array=iso_v, rx_array=iso_v, devices=[
        RadioDevice("tx", "tx", np.array(tx)), RadioDevice("rx", "rx", np.array(rx))])
    lattice = _lattice(tx, rx, max_depth)
    for (nx, ny, nz), deltas in lattice.items():
        for delta in deltas:
            hits = _crossings(rx, delta)
            assert len(hits) == nx + ny + nz
            # a path through an edge of the room, where two faces meet, is
            # not in general position: its two hits coincide
            assume(all(b - a > 1e-3 for a, b in zip(hits, hits[1:])))
    # per bounce class, each lattice image as (length, image - rx), by length
    want = {k: sorted((float(np.linalg.norm(d)), tuple(d)) for d in v)
            for k, v in lattice.items()}
    pathset = compute_paths(scene, TREE, max_depth)
    got = {}
    for q, p in enumerate(pathset.paths):
        got.setdefault(_bounces(p), []).append((p.length_m, q))
    assert sorted(got) == sorted(want)
    for k, rows in got.items():
        rows.sort()
        assert len(rows) == len(want[k])
        assert max(abs(a[0] - b[0]) for a, b in zip(rows, want[k])) <= 1e-9
    if level:
        lam, gains = scene.wavelength, compute_gains(scene, TREE, pathset).entries
        eta = EvalContext(scene).eta("concrete")
        for (nx, ny, nz), rows in got.items():
            if nz:  # a floor bounce mixes TE and TM
                continue
            for (_, q), (d, delta) in zip(rows, want[nx, ny, nz]):
                r_x, r_y = (fresnel(eta, abs(c) / d)[0].to_complex() for c in delta[:2])
                a = (lam / (4 * math.pi * d) * np.exp(-2j * math.pi * d / lam)
                     * r_x ** nx * r_y ** ny)
                assert abs(gains[q].a[0, 0, 0] - a) <= 1e-12 * abs(a)
    # a launched path is one of the lattice's, under one of its sequences
    for p in compute_paths(scene, TREE, max_depth, "fibonacci", NUM_RAYS).paths:
        assert min(abs(p.length_m - d) for d, _ in want[_bounces(p)]) <= 1e-9
