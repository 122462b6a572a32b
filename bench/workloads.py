"""The benchmark's three workloads, driving emtrace through its public API.

A workload has ``setup(et, seed, workdir)`` (everything before the first
job), ``make_input(state, seed, k)`` (the seeded inputs of job ``k``),
``run(et, state, inp)`` (the one call sequence a user makes, timed),
``check(et, state, inp, out, k)`` (oracles from :mod:`checks`; returns
error strings) and ``serialize(out)`` (bytes compared when a job is rerun).
``items(inp)`` counts the work units the job completes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random

import numpy as np

import checks
import city

CITY_BLOCKS = 4  # 4 x 4 blocks: 16 closed boxes + ground = 194 triangles
CITIES = 16


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _city_pool(et, seed, workdir, name, **arrays):
    """CITIES seeded cities, each written through write_scene and loaded back.

    Job ``k`` uses city ``k mod CITIES``, so a run's cost averages over
    many layouts instead of hanging on one.
    """
    pool = []
    for i in range(CITIES):
        data = city.city_dict(f"{seed}:{i}", n=CITY_BLOCKS, **arrays)
        path = os.path.join(workdir, f"{name}-{seed}-{i}-{os.getpid()}.scene")
        et.write_scene(et.scene.scene_from_dict(data), path)
        try:
            scene = et.load_scene(path)
        finally:
            os.remove(path)
        pool.append({"data": data, "scene": scene, "tree": et.build(scene),
                     "tris": checks.Triangles(data), "boxes": city.building_boxes(data)})
    return pool


def _device(et, kind, name, pos):
    return et.RadioDevice(kind=kind, name=name, position=np.asarray(pos, dtype=np.float64))


class CoverageFib:
    """coverage_map over the city with Fibonacci launching, one transmitter per job."""

    name = "coverage_fib"
    GRID = 3  # cells per side
    CELL_M = 17.0  # not a divisor of the block pitch, so cells mix streets and buildings
    NUM_RAYS = 1024
    MAX_DEPTH = 2
    EXHAUSTIVE_CELLS = 2  # cells of the first job also solved exhaustively

    def setup(self, et, seed, workdir):
        return _city_pool(et, seed, workdir, self.name)

    def make_input(self, state, seed, k):
        rng = _rng(self.name, seed, k)
        # a rooftop-height mast above an inner street: clear LOS to many street cells
        tx = city.street_point(rng, CITY_BLOCKS, round(rng.uniform(34.0, 45.0), 2))
        span = self.GRID * self.CELL_M
        h = city.half_extent(CITY_BLOCKS)
        origin = (rng.uniform(-h, h - span), rng.uniform(-h, h - span))
        return {"city": k % CITIES, "tx": tx, "origin": origin}

    def items(self, inp):
        return self.GRID * self.GRID

    def _grid(self, et, inp):
        return et.GridSpec(origin=inp["origin"], cell_size=self.CELL_M,
                           nx=self.GRID, ny=self.GRID, height=1.5)

    def run(self, et, state, inp):
        town = state[inp["city"]]
        scene = dataclasses.replace(town["scene"],
                                    devices=[_device(et, "tx", "tx", inp["tx"])])
        cm = et.coverage_map(scene, town["tree"], self._grid(et, inp), self.MAX_DEPTH,
                             method="fibonacci", num_rays=self.NUM_RAYS)
        return cm.gains

    def check(self, et, state, inp, out, k):
        town = state[inp["city"]]
        centers = checks.cell_centers(inp["origin"], self.CELL_M, self.GRID,
                                      self.GRID, 1.5)
        wavelength = checks.SPEED_OF_LIGHT / town["data"]["frequency_hz"]
        errors = checks.check_coverage(out, centers, inp["tx"], town["tris"],
                                       town["boxes"], wavelength)
        if k == 0:
            # cross-method oracle on sampled street cells: exhaustive finds every path
            tx = _device(et, "tx", "tx", inp["tx"])
            outside = [c for c in centers
                       if not checks.inside_box(c[2], town["boxes"], -checks.FACE_MARGIN_M)]
            for iy, ix, c in outside[:self.EXHAUSTIVE_CELLS]:
                g, _ = et.point_path_gain(town["scene"], town["tree"], tx, c,
                                          self.MAX_DEPTH, method="exhaustive")
                errors += checks.check_subset_gain(float(out[iy, ix]), float(g), (iy, ix))
        return errors

    def serialize(self, out):
        return np.asarray(out, dtype="<f8").tobytes()


class CirExh:
    """Exhaustive paths to street receivers, then gains, Doppler, CIR and OFDM."""

    name = "cir_exh"
    NUM_RX = 1
    MAX_DEPTH = 2
    TX_ARRAY = {"num_rows": 2, "num_cols": 2, "vertical_spacing": 0.5,
                "horizontal_spacing": 0.5, "pattern": "tr38901", "polarization": "VH"}
    RX_ARRAY = {"pattern": "dipole", "polarization": "cross"}
    # 40 MHz NR carrier at 30 kHz spacing (106 resource blocks), one 14-symbol slot
    NUM_SUBCARRIERS = 1272
    SPACING_HZ = 30e3
    NUM_SYMBOLS = 14
    SYMBOL_RATE_HZ = 28e3
    SAMPLED_SUBCARRIERS = (0, 1, 317, 636, 955, 1271)

    def setup(self, et, seed, workdir):
        return _city_pool(et, seed, workdir, self.name,
                          tx_array=self.TX_ARRAY, rx_array=self.RX_ARRAY)

    def make_input(self, state, seed, k):
        rng = _rng(self.name, seed, k)
        tx = city.street_point(rng, CITY_BLOCKS, round(rng.uniform(10.0, 25.0), 2))
        # receivers walk the transmitter's street, so most links see paths
        h = city.half_extent(CITY_BLOCKS)
        axis = 0 if abs(tx[0] - round(tx[0] / city.pitch()) * city.pitch()) \
            < city.STREET_M / 2 else 1
        rxs = []
        for _ in range(self.NUM_RX):
            p = list(tx)
            p[1 - axis] = round(rng.uniform(-h, h), 2)
            p[axis] = round(p[axis] + rng.uniform(-2.0, 2.0), 2)
            p[2] = 1.5
            rxs.append(tuple(p))
        v_rx = tuple(round(rng.uniform(-30.0, 30.0), 2) if i < 2 else 0.0 for i in range(3))
        return {"city": k % CITIES, "tx": tx, "rxs": rxs, "v_rx": v_rx}

    def items(self, inp):
        return len(inp["rxs"])

    def run(self, et, state, inp):
        town = state[inp["city"]]
        devices = [_device(et, "tx", "tx", inp["tx"])]
        devices += [_device(et, "rx", f"rx{i}", p) for i, p in enumerate(inp["rxs"])]
        scene = dataclasses.replace(town["scene"], devices=devices)
        tree = town["tree"]
        paths = et.compute_paths(scene, tree, self.MAX_DEPTH, method="exhaustive")
        gains = et.compute_gains(scene, tree, paths)
        gains = et.apply_doppler(gains, sampling_frequency=self.SYMBOL_RATE_HZ,
                                 num_time_steps=self.NUM_SYMBOLS,
                                 rx_velocities=list(inp["v_rx"]))
        cir = et.build_cir(gains, los=True, reflection=True)
        fr = et.frequency_response(cir, self.NUM_SUBCARRIERS, self.SPACING_HZ)
        return {"paths": paths.paths, "cir": cir, "h": fr.h}

    def check(self, et, state, inp, out, k):
        errors = []
        town = state[inp["city"]]
        cir = out["cir"]
        freq = town["data"]["frequency_hz"]
        for r, rx in enumerate(inp["rxs"]):
            link = checks.sorted_link_paths(out["paths"], "tx", f"rx{r}")
            errors += checks.check_paths(link, inp["tx"], rx, town["tris"])
            errors += checks.check_cir_doppler(cir.a, cir.tau, link, r, 0,
                                               (0.0, 0.0, 0.0), inp["v_rx"], freq,
                                               cir.sample_times)
        if cir.a.shape[4]:
            errors += checks.check_ofdm(out["h"], cir.a, cir.tau, self.NUM_SUBCARRIERS,
                                        self.SPACING_HZ, self.SAMPLED_SUBCARRIERS)
        return errors

    def serialize(self, out):
        verts = b"".join(np.asarray(p.vertices, dtype="<f8").tobytes() for p in out["paths"])
        return (verts + out["cir"].a.astype("<c16").tobytes()
                + out["cir"].tau.astype("<f8").tobytes() + out["h"].astype("<c16").tobytes())


class Calibrate:
    """learn_materials on the bundled calib pair with seeded planted materials."""

    name = "calibrate"
    ITERATIONS = 60
    MAX_DEPTH = 1
    # planted eps_r ranges of the materials the records touch; at the corner
    # (ground 4, wall 7) 60 iterations still leave an error of 0.06
    PLANTED_EPS = {"ground_mat": (4.0, 7.0), "wall_mat": (4.0, 6.5)}
    UNTOUCHED = "buried_mat"
    EPS_TOL = 0.1
    # planted datasets made in set-up; a run cycles through them only if it
    # completes more jobs than this
    NUM_DATASETS = 40

    def setup(self, et, seed, workdir):
        truth = et.load_scene(et.bundled_scene("calib_truth"))
        init = et.load_scene(et.bundled_scene("calib_init"))
        truth_tree = et.build(truth)
        init_tree = et.build(init)
        with open(et.bundled_scene("calib_init")) as fh:
            init_data = json.load(fh)
        datasets, planted = [], []
        for k in range(self.NUM_DATASETS):
            rng = _rng(self.name, seed, k)
            mats = dict(truth.materials)
            eps = {}
            for name, (lo, hi) in self.PLANTED_EPS.items():
                eps[name] = round(rng.uniform(lo, hi), 3)
                mats[name] = dataclasses.replace(mats[name], eps_r=eps[name],
                                                 sigma=round(rng.uniform(0.01, 0.2), 4))
            planted_scene = dataclasses.replace(truth, materials=mats)
            datasets.append(et.generate_dataset(planted_scene, num_subcarriers=128,
                                                subcarrier_spacing_hz=30e3,
                                                max_depth=self.MAX_DEPTH,
                                                bvh=truth_tree))
            planted.append(eps)
        untouched = {}
        for m in init_data["materials"]:
            if m["name"] == self.UNTOUCHED:
                untouched[f"mat:{m['name']}:eps_r"] = float(m["params"]["eps_r"])
                untouched[f"mat:{m['name']}:sigma"] = float(m["params"]["sigma"])
        return {"init": init, "tree": init_tree, "datasets": datasets,
                "planted": planted, "untouched": untouched}

    def make_input(self, state, seed, k):
        return {"index": k % self.NUM_DATASETS}

    def items(self, inp):
        return 1

    def run(self, et, state, inp):
        config = et.OptimConfig(iterations=self.ITERATIONS, max_depth=self.MAX_DEPTH)
        log = et.learn_materials(state["init"], state["datasets"][inp["index"]],
                                 config, bvh=state["tree"])
        return {"final": dict(log.final_values), "losses": list(log.losses)}

    def check(self, et, state, inp, out, k):
        return checks.check_calibration(out["final"], out["losses"],
                                        state["planted"][inp["index"]],
                                        state["untouched"], self.EPS_TOL)

    def serialize(self, out):
        return repr((sorted(out["final"].items()), out["losses"])).encode()


WORKLOADS = {w.name: w for w in (CoverageFib(), CirExh(), Calibrate())}
