"""Tests of the benchmark itself: the city generator and the output checks.

Run from the repository root with ``python3 -m pytest bench -q``. Each
check is shown to pass on real program outputs and to fail on a
deliberately corrupted copy.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
from collections import Counter

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import emtrace as et  # noqa: E402

import checks  # noqa: E402
import city  # noqa: E402
import workloads  # noqa: E402
from run import JobRunner  # noqa: E402


def _write(seed, path):
    et.write_scene(et.scene.scene_from_dict(city.city_dict(seed)), str(path))
    return path.read_bytes()


# -- city generator ------------------------------------------------------------

def test_one_seed_gives_a_byte_identical_scene_file(tmp_path):
    first = _write(7, tmp_path / "a.scene")
    assert first == _write(7, tmp_path / "b.scene")
    assert first != _write(8, tmp_path / "c.scene")


def test_buildings_are_closed_boxes_in_a_valid_scene(tmp_path):
    data = city.city_dict(3)
    path = tmp_path / "city.scene"
    _write(3, path)
    scene = et.load_scene(str(path))
    scene.validate()
    assert sum(len(o.triangles) for o in scene.objects) == 2 + 16 * 12
    for obj in data["objects"][1:]:
        tris = np.asarray(obj["triangles"]).reshape(-1, 3)
        edges = Counter(tuple(sorted((int(t[i]), int(t[(i + 1) % 3]))))
                        for t in tris for i in range(3))
        assert set(edges.values()) == {2}, obj["name"]
        # outward winding: the divergence theorem gives the box volume
        v = np.asarray(obj["vertices_m"]).reshape(-1, 3)
        vol = sum(np.dot(v[a], np.cross(v[b], v[c])) for a, b, c in tris) / 6.0
        x0, y0, x1, y1, h = city.building_boxes({"objects": [obj]})[0]
        assert vol == pytest.approx((x1 - x0) * (y1 - y0) * h)


def test_street_points_are_outside_every_building():
    data = city.city_dict(5)
    boxes = city.building_boxes(data)
    rng = random.Random(0)
    for _ in range(500):
        assert not checks.inside_box(city.street_point(rng, 4, 1.5), boxes)


# -- coverage checks -----------------------------------------------------------

@pytest.fixture(scope="module")
def city_tris():
    data = city.city_dict(2)
    return data, checks.Triangles(data), city.building_boxes(data)


def _coverage_case(city_tris):
    """A cell inside a building and a street cell in clear view of the mast."""
    data, tris, boxes = city_tris
    x0, y0, x1, y1, _ = boxes[0]
    inside = ((x0 + x1) / 2, (y0 + y1) / 2, 1.5)
    street = (-city.half_extent(4), 0.0, 1.5)
    tx = (-city.half_extent(4), 5.0, 20.0)
    assert checks.inside_box(inside, boxes) and not tris.segment_blocked(tx, street)
    centers = [(0, 0, inside), (0, 1, street)]
    lam = checks.SPEED_OF_LIGHT / data["frequency_hz"]
    floor = (lam / (4 * math.pi * math.dist(tx, street))) ** 2
    return centers, tx, lam, floor


def test_coverage_check_passes_and_catches_corruption(city_tris):
    _, tris, boxes = city_tris
    centers, tx, lam, floor = _coverage_case(city_tris)
    good = np.array([[0.0, 1.5 * floor]])
    assert checks.check_coverage(good, centers, tx, tris, boxes, lam) == []
    leak = np.array([[1e-15, 1.5 * floor]])
    assert any("inside a building" in e
               for e in checks.check_coverage(leak, centers, tx, tris, boxes, lam))
    weak = np.array([[0.0, 0.5 * floor]])
    assert any("below free space" in e
               for e in checks.check_coverage(weak, centers, tx, tris, boxes, lam))
    assert checks.check_coverage(np.array([[0.0, np.nan]]), centers, tx, tris, boxes, lam)
    x0, y0, x1, y1, _ = boxes[0]
    on_wall = [(0, 0, (x0, (y0 + y1) / 2, 1.5))]  # neither inside nor outside: skipped
    assert checks.check_coverage(np.array([[1e-9]]), on_wall, tx, tris, boxes, lam) == []
    assert checks.check_subset_gain(1.0, 1.0, (0, 0)) == []
    assert checks.check_subset_gain(1.0 + 1e-6, 1.0, (0, 0))


class SmallCoverage(workloads.CoverageFib):
    GRID = 3
    NUM_RAYS = 256
    EXHAUSTIVE_CELLS = 1


def test_coverage_job_passes_its_checks(tmp_path):
    w = SmallCoverage()
    state = w.setup(et, 4, str(tmp_path))
    inp = w.make_input(state, 4, 0)
    out = w.run(et, state, inp)
    assert w.check(et, state, inp, out, 0) == []


# -- path, CIR, Doppler and OFDM checks -----------------------------------------

class SmallCir(workloads.CirExh):
    MAX_DEPTH = 1
    NUM_SUBCARRIERS = 64
    SAMPLED_SUBCARRIERS = (0, 31, 63)


@pytest.fixture(scope="module")
def cir_job(tmp_path_factory):
    w = SmallCir()
    state = w.setup(et, 1, str(tmp_path_factory.mktemp("cir")))
    inp = w.make_input(state, 1, 0)
    out = w.run(et, state, inp)
    return w, state, inp, out


def _link(cir_job):
    w, state, inp, out = cir_job
    return checks.sorted_link_paths(out["paths"], "tx", "rx0")


def test_cir_job_passes_its_checks(cir_job):
    w, state, inp, out = cir_job
    link = _link(cir_job)
    assert any(p.kind == "los" for p in link) and any(p.kind == "specular" for p in link)
    assert w.check(et, state, inp, out, 0) == []


def test_path_checks_catch_corrupted_geometry(cir_job):
    w, state, inp, out = cir_job
    tris = state[inp["city"]]["tris"]
    link = _link(cir_job)
    tx, rx = inp["tx"], inp["rxs"][0]
    assert checks.check_paths(link, tx, rx, tris) == []

    ground = next(p for p in link if p.seq and p.seq[0] in (0, 1))
    i = link.index(ground)

    def with_path(p):
        return link[:i] + [p] + link[i + 1:]

    moved = ground.vertices.copy()
    moved[1] += (0.5, 0.0, 0.0)  # still on the ground, but the angles no longer match
    errs = checks.check_paths(with_path(dataclasses.replace(ground, vertices=moved)),
                              tx, rx, tris)
    assert any("law of reflection" in e for e in errs)

    off = ground.vertices.copy()
    off[1] += (0.0, 0.0, 0.01)  # lifted off its triangle
    errs = checks.check_paths(with_path(dataclasses.replace(ground, vertices=off)),
                              tx, rx, tris)
    assert any("not on triangle" in e for e in errs)

    late = dataclasses.replace(ground, delay_s=ground.delay_s * (1 + 1e-6))
    assert any("delay" in e for e in checks.check_paths(with_path(late), tx, rx, tris))

    no_los = [p for p in link if p.kind != "los"]
    assert any("LOS" in e for e in checks.check_paths(no_los, tx, rx, tris))


def test_path_check_catches_a_segment_through_a_building(city_tris):
    _, tris, boxes = city_tris
    x0, y0, x1, y1, _ = boxes[0]
    cy = (y0 + y1) / 2
    tx = np.array([x0 - 3.0, cy, 1.5])
    rx = np.array([x1 + 3.0, cy, 1.5])
    bounce = np.array([(x0 + x1) / 2, cy, 0.0])  # mirror point on the ground, under the box
    length = float(np.linalg.norm(bounce - tx) + np.linalg.norm(rx - bounce))
    fake = dataclasses.make_dataclass("P", ["kind", "seq", "vertices", "length_m",
                                            "delay_s", "tx", "rx"])
    ground_prim = next(i for i in (0, 1)
                       if min(tris.barycentric(i, bounce)) >= 0
                       and sum(tris.barycentric(i, bounce)) <= 1)
    p = fake("specular", (ground_prim,), np.stack([tx, bounce, rx]), length,
             length / checks.SPEED_OF_LIGHT, "tx", "rx")
    assert checks.check_paths([p], tx, rx, tris) == ["path specular "
                                                      f"({ground_prim},): a segment "
                                                      "crosses a triangle"]


def test_doppler_and_ofdm_checks_catch_corruption(cir_job):
    w, state, inp, out = cir_job
    cir = out["cir"]
    link = _link(cir_job)
    freq = state[inp["city"]]["data"]["frequency_hz"]

    def doppler(a, tau=cir.tau):
        return checks.check_cir_doppler(a, tau, link, 0, 0, (0, 0, 0), inp["v_rx"],
                                        freq, cir.sample_times)

    assert doppler(cir.a) == []
    twisted = cir.a.copy()
    twisted[0, :, 0, :, 0, 5] *= np.exp(0.01j)
    assert any("phase slope" in e for e in doppler(twisted))
    faded = cir.a.copy()
    faded[0, :, 0, :, 0, 3] *= 1.001
    assert any("|a| changes" in e for e in doppler(faded))
    shifted = cir.tau.copy()
    shifted[0, 0, 0] += 1e-9
    assert any("tau" in e for e in doppler(cir.a, shifted))

    def ofdm(h):
        return checks.check_ofdm(h, cir.a, cir.tau, w.NUM_SUBCARRIERS, w.SPACING_HZ,
                                 w.SAMPLED_SUBCARRIERS)

    assert ofdm(out["h"]) == []
    bad = out["h"].copy()
    bad[0, 0, 31, 0] *= 1.0 + 1e-6
    assert any("DFT" in e for e in ofdm(bad))


# -- calibration checks ---------------------------------------------------------

def test_calibration_check_catches_corruption():
    planted = {"ground_mat": 5.0, "wall_mat": 6.0}
    untouched = {"mat:buried_mat:eps_r": 3.0, "mat:buried_mat:sigma": 0.1}
    final = {"mat:ground_mat:eps_r": 5.01, "mat:wall_mat:eps_r": 5.95, **untouched}
    losses = [1.0, 0.5, 0.5, 0.1]
    assert checks.check_calibration(final, losses, planted, untouched, 0.1) == []
    far = dict(final, **{"mat:wall_mat:eps_r": 6.2})
    assert any("wall_mat" in e
               for e in checks.check_calibration(far, losses, planted, untouched, 0.1))
    assert any("loss rose" in e
               for e in checks.check_calibration(final, [1.0, 0.5, 0.6], planted,
                                                 untouched, 0.1))
    nudged = dict(final, **{"mat:buried_mat:sigma": math.nextafter(0.1, 1.0)})
    assert any("untouched" in e
               for e in checks.check_calibration(nudged, losses, planted, untouched, 0.1))


class OneCalibration(workloads.Calibrate):
    NUM_DATASETS = 1


def test_calibration_job_passes_its_checks(tmp_path):
    w = OneCalibration()
    state = w.setup(et, 2, str(tmp_path))
    inp = w.make_input(state, 2, 0)
    out = w.run(et, state, inp)
    assert w.check(et, state, inp, out, 0) == []


# -- determinism ----------------------------------------------------------------

class Drifting:
    """A stand-in workload whose output changes on every call."""

    name = "drifting"

    def __init__(self):
        self.calls = 0

    def make_input(self, state, seed, k):
        return k

    def run(self, et_, state, inp):
        self.calls += 1
        return self.calls

    def check(self, et_, state, inp, out, k):
        return []

    def serialize(self, out):
        return repr(out).encode()


def test_rerun_check_catches_nondeterministic_outputs():
    runner = JobRunner(Drifting(), None, None, 0)
    _, _, _, out = runner.run(0)
    assert not runner.rerun_matches(0, out)
    assert runner.errors == ["job 0: rerun outputs differ"]
