"""Property tests over random device placements (hypothesis, derandomized).

Examples are drawn from a fixed seed and no example database is kept, so
the suite runs the same cases every time.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emtrace import bvh as accel
from emtrace.scene import RadioDevice, bundled_scene, load_scene
from emtrace.tracer import MERGE_TOL, compute_paths, compute_paths_between

BOX = load_scene(bundled_scene("box"))  # a closed 10 x 8 x 4 m room
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
