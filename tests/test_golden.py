"""Byte-identity of the CLI's outputs against committed SHA-256 digests.

A fixed suite of ``cli.main`` runs (trace, coverage, gen-dataset, calibrate,
orient) writes 20 files; each file's digest must equal the one recorded in
``golden.json``. A change that alters outputs on purpose regenerates the
manifest in the same commit and names each changed file and the reason:

    PYTHONPATH=src python tests/test_golden.py --update

The manifest also records the numpy version and machine it was made on,
because digests of floating-point outputs need not carry across them; a
failure says when those differ.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np
import pytest

from emtrace import cli
from emtrace.scene import bundled_scene

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


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_suite(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def test_manifest_lists_the_suite(manifest):
    assert sorted(manifest["sha256"]) == sorted(FILES)
    assert len(FILES) == 20


@pytest.mark.parametrize("name", FILES)
def test_output_is_byte_identical(name, digests, manifest):
    if digests[name] != manifest["sha256"][name]:
        env, here = manifest["environment"], _environment()
        note = ("" if env == here else
                f"; the digests were recorded under {env}, this is {here}, and "
                "floating-point outputs need not carry across numpy versions or machines")
        pytest.fail(f"{name}: SHA-256 {digests[name]} differs from golden.json{note}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"environment": _environment(), "sha256": run_suite(pathlib.Path(tmp))}
    MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['sha256'])} digests -> {MANIFEST}")
