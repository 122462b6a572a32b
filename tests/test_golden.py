"""Byte-identity of the CLI's and the library's outputs against committed SHA-256 digests.

A fixed suite of ``cli.main`` runs (trace, coverage, gen-dataset, calibrate,
orient) writes 20 files; each file's digest must equal the one recorded in
``golden.json``. A second suite runs the library's channel chain, which no
CLI command writes: gains, Doppler, CIR and OFDM response of the box room
with an 8x2 dual-polarized tx array and a cross-polarized rx array, for
synthetic and explicit arrays, and that array's coverage maps in both tx
modes. A change that alters outputs on purpose regenerates the manifest in
the same commit and names each changed file and the reason:

    PYTHONPATH=src python tests/test_golden.py --update

The manifest also records the numpy version and machine it was made on,
because digests of floating-point outputs need not carry across them; a
failure says when those differ.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np
import pytest

from emtrace import cli
from emtrace.bvh import build
from emtrace.channel import (GridSpec, build_cir, coverage_map, frequency_response,
                             save_cir)
from emtrace.em import apply_doppler, compute_gains
from emtrace.scene import AntennaArray, bundled_scene, load_scene
from emtrace.tracer import compute_paths

MANIFEST = pathlib.Path(__file__).with_name("golden.json")
COVERAGE = [(name, method, mode) for name in ("box", "two_ray", "orient")
            for method in ("exhaustive", "fibonacci") for mode in ("central", "array")]


def _suite(w: pathlib.Path):
    """(argv, output file names) per run, in run order, writing into ``w``."""
    runs = [(["trace", "--scene", bundled_scene("box"), "--max-depth", "3",
              "--out", w / "trace-box.txt", "--png", w / "trace-box.png"],
             ["trace-box.txt", "trace-box.png"]),
            (["trace", "--scene", bundled_scene("orient"), "--max-depth", "2",
              "--method", "fibonacci", "--out", w / "trace-orient.txt"],
             ["trace-orient.txt"])]
    for name, method, mode in COVERAGE:
        out = f"coverage-{name}-{method}-{mode}.bin"
        runs.append((["coverage", "--scene", bundled_scene(name), "--max-depth", "2",
                      "--method", method, "--tx-mode", mode, "--grid", "8x8",
                      "--cell", "5", "--out", w / out], [out]))
    runs += [(["gen-dataset", "--scene", bundled_scene("calib_truth"), "--max-depth", "1",
               "--out", w / "dataset.json"], ["dataset.json"]),
             (["calibrate", "--scene", bundled_scene("calib_init"), "--max-depth", "1",
               "--dataset", w / "dataset.json", "--iterations", "120",
               "--log", w / "calibrate.csv", "--out", w / "calibrate.json"],
              ["calibrate.csv", "calibrate.json"]),
             (["orient", "--scene", bundled_scene("orient"), "--max-depth", "1",
               "--grid", "2x2", "--cell", "5", "--height", "50", "--center", "70.7,50",
               "--iterations", "50", "--log", w / "orient.csv", "--out", w / "orient.json"],
              ["orient.csv", "orient.json"])]
    return runs


FILES = [f for _, outs in _suite(pathlib.Path()) for f in outs]
LIBRARY = [f"{out}-{kind}" for kind in ("synthetic", "explicit") for out in ("cir", "ofdm")]
LIBRARY += [f"coverage-box8x2-{mode}" for mode in ("central", "array")]


def _environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def run_suite(workdir: pathlib.Path) -> dict:
    """Run the suite inside ``workdir``; SHA-256 hex digest per output file."""
    digests = {}
    for argv, outs in _suite(workdir):
        argv = [str(a) for a in argv]
        if cli.main(argv) != 0:
            raise RuntimeError(f"emtrace {' '.join(argv)} failed")
        for f in outs:
            digests[f] = hashlib.sha256((workdir / f).read_bytes()).hexdigest()
    return digests


def _array_box(synthetic_array: bool):
    """The box room with an 8x2 tr38901 VH tx array and a dipole cross rx array."""
    return dataclasses.replace(
        load_scene(bundled_scene("box")), synthetic_array=synthetic_array,
        tx_array=AntennaArray(num_rows=8, num_cols=2, pattern="tr38901", polarization="VH"),
        rx_array=AntennaArray(pattern="dipole", polarization="cross"))


def run_library(workdir: pathlib.Path) -> dict:
    """Run the library suite inside ``workdir``; SHA-256 hex digest per output.

    CIRs and coverage maps are digested as the files they save to; an OFDM
    response as the bytes of its arrays.
    """
    digests = {}
    for kind in ("synthetic", "explicit"):
        scene = _array_box(kind == "synthetic")
        tree = build(scene)
        gains = compute_gains(scene, tree, compute_paths(scene, tree, 2))
        cir = build_cir(apply_doppler(gains, 1e3, 4, tx_velocities=[3.0, 0.0, 0.0]))
        out = workdir / f"cir-{kind}"
        save_cir(cir, str(out))
        fr = frequency_response(cir, 64, 30e3)
        digests[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
        ofdm = fr.h.tobytes() + fr.frequencies.tobytes()
        digests[f"ofdm-{kind}"] = hashlib.sha256(ofdm).hexdigest()
    scene = _array_box(True)
    grid = GridSpec(origin=(0.6, 0.4), cell_size=0.9, nx=8, ny=8)
    for mode in ("central", "array"):
        out = workdir / f"coverage-box8x2-{mode}"
        coverage_map(scene, build(scene), grid, 2, tx_mode=mode).save_binary(str(out))
        digests[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_suite(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def library_digests(tmp_path_factory):
    return run_library(tmp_path_factory.mktemp("golden-library"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def test_manifest_lists_the_suite(manifest):
    assert sorted(manifest["sha256"]) == sorted(FILES)
    assert len(FILES) == 20


def _compare(name, digest, manifest, key):
    if digest != manifest[key][name]:
        env, here = manifest["environment"], _environment()
        note = ("" if env == here else
                f"; the digests were recorded under {env}, this is {here}, and "
                "floating-point outputs need not carry across numpy versions or machines")
        pytest.fail(f"{name}: SHA-256 {digest} differs from golden.json{note}")


@pytest.mark.parametrize("name", FILES)
def test_output_is_byte_identical(name, digests, manifest):
    _compare(name, digests[name], manifest, "sha256")


def test_manifest_lists_the_library_suite(manifest):
    assert sorted(manifest["library"]) == sorted(LIBRARY)
    assert len(LIBRARY) == 6


@pytest.mark.parametrize("name", LIBRARY)
def test_library_output_is_byte_identical(name, library_digests, manifest):
    _compare(name, library_digests[name], manifest, "library")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"environment": _environment(), "sha256": run_suite(pathlib.Path(tmp)),
                   "library": run_library(pathlib.Path(tmp))}
    MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['sha256']) + len(payload['library'])} digests -> {MANIFEST}")
