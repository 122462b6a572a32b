"""Command-line frontend.

Subcommands: trace, coverage, gen-dataset, calibrate, orient. Everything in
the pipeline is deterministic (the Fibonacci lattice replaces any RNG), so
identical invocations produce byte-identical outputs; that determinism is a
product guarantee, not an accident.

Exit codes: 0 success, 1 user error (bad flags or scene), 2 internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

import numpy as np

from . import bvh as accel
from .channel import ChannelError, GridSpec, coverage_map
from .em import EmError
from .optim import (Dataset, OptimConfig, OptimError, generate_dataset,
                    learn_materials, optimize_orientation)
from .render import render_coverage, render_paths, write_png
from .scene import SceneError, load_scene
from .tracer import TracerError, compute_paths, dump_paths

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2

_USER_ERRORS = (SceneError, TracerError, ChannelError, EmError, OptimError,
                FileNotFoundError, IsADirectoryError, PermissionError)


class _CliParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        raise SceneError(message)


def _grid_type(text: str):
    try:
        w, h = text.lower().split("x")
        nx, ny = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 10x10, got {text!r}")
    if nx < 1 or ny < 1:
        raise argparse.ArgumentTypeError("grid dimensions must be positive")
    return nx, ny


def _center_type(text: str):
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"center must look like X,Y, got {text!r}")
    return x, y


def build_parser() -> argparse.ArgumentParser:
    p = _CliParser(prog="emtrace",
                   description="Differentiable radio propagation ray tracer")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--scene", required=True, help="scene file to load")
        sp.add_argument("--max-depth", type=int, default=3,
                        help="maximum number of reflections per path")
        sp.add_argument("--method", choices=["exhaustive", "fibonacci"],
                        default="exhaustive",
                        help="candidate search strategy")
        sp.add_argument("--num-rays", type=int, default=4096,
                        help="launched rays for the fibonacci method")

    def add_grid(sp):
        sp.add_argument("--grid", type=_grid_type, required=True, metavar="WxH",
                        help="grid size in cells, e.g. 10x10")
        sp.add_argument("--cell", type=float, required=True, metavar="METERS",
                        help="cell edge length")
        sp.add_argument("--height", type=float, default=1.5, metavar="METERS",
                        help="probe height of the measurement plane")
        sp.add_argument("--center", type=_center_type, default=None, metavar="X,Y",
                        help="grid center (default: scene bounding-box center)")

    sp = sub.add_parser("trace", help="compute propagation paths")
    add_common(sp)
    sp.add_argument("--normalize-delays", action="store_true",
                    help="report delays relative to each pair's first arrival")
    sp.add_argument("--out", required=True, help="path records output file")
    sp.add_argument("--png", help="optional top-down path overlay image")

    sp = sub.add_parser("coverage", help="compute a coverage map")
    add_common(sp)
    add_grid(sp)
    sp.add_argument("--tx-mode", choices=["central", "array"], default="central",
                    help="transmit with the central element or the coherent array sum")
    sp.add_argument("--out", required=True, help="binary coverage grid output")
    sp.add_argument("--png", help="optional rendered map image")

    sp = sub.add_parser("gen-dataset", help="generate frequency responses at the scene receivers")
    add_common(sp)
    sp.add_argument("--subcarriers", type=int, default=128, metavar="N",
                    help="number of OFDM subcarriers")
    sp.add_argument("--spacing", type=float, default=30e3, metavar="HZ",
                    help="subcarrier spacing")
    sp.add_argument("--out", required=True, help="dataset output file")

    sp = sub.add_parser("calibrate", help="learn trainable material parameters from a dataset")
    add_common(sp)
    sp.add_argument("--dataset", required=True, help="dataset file from gen-dataset")
    sp.add_argument("--lr", type=float, default=0.05, help="gradient step size")
    sp.add_argument("--iterations", type=int, default=500,
                    help="iteration cap")
    sp.add_argument("--log", required=True, help="CSV training log output")
    sp.add_argument("--out", help="learned material parameters (JSON)")

    sp = sub.add_parser("orient", help="optimize transmitter orientation for a region")
    add_common(sp)
    add_grid(sp)
    sp.add_argument("--lr", type=float, default=0.2, help="gradient step size")
    sp.add_argument("--iterations", type=int, default=200,
                    help="iteration cap")
    sp.add_argument("--log", required=True, help="CSV objective log output")
    sp.add_argument("--out", help="optimized orientation (JSON)")
    return p


def _scene_center(scene):
    pts = [d.position for d in scene.devices]
    for o in scene.objects:
        if len(o.vertices):
            pts.append(o.vertices.min(axis=0))
            pts.append(o.vertices.max(axis=0))
    pts = np.array([p[:2] for p in pts]) if pts else np.zeros((1, 2))
    return (pts.min(axis=0) + pts.max(axis=0)) / 2.0


def _grid_from_args(scene, args) -> GridSpec:
    nx, ny = args.grid
    cx, cy = args.center if args.center is not None else _scene_center(scene)
    origin = (cx - nx * args.cell / 2.0, cy - ny * args.cell / 2.0)
    return GridSpec(origin=origin, cell_size=args.cell, nx=nx, ny=ny,
                    height=args.height)


def _cmd_trace(args) -> int:
    scene = load_scene(args.scene)
    tree = accel.build(scene)
    paths = compute_paths(scene, tree, args.max_depth, args.method, args.num_rays)
    with open(args.out, "w") as fh:
        fh.write(dump_paths(paths, normalize_delays=args.normalize_delays))
    if args.png:
        write_png(args.png, render_paths(paths))
    print(f"traced {len(paths.paths)} paths -> {args.out}")
    return EXIT_OK


def _cmd_coverage(args) -> int:
    scene = load_scene(args.scene)
    tree = accel.build(scene)
    grid = _grid_from_args(scene, args)
    cmap = coverage_map(scene, tree, grid, args.max_depth, args.method,
                        args.num_rays, tx_mode=args.tx_mode)
    cmap.save_binary(args.out)
    if args.png:
        write_png(args.png, render_coverage(cmap))
    covered = int((cmap.gains > 0).sum())
    print(f"coverage {grid.nx}x{grid.ny} cells ({covered} reached) -> {args.out}")
    return EXIT_OK


def _cmd_gen_dataset(args) -> int:
    scene = load_scene(args.scene)
    ds = generate_dataset(scene, num_subcarriers=args.subcarriers,
                          subcarrier_spacing_hz=args.spacing,
                          max_depth=args.max_depth, method=args.method,
                          num_rays=args.num_rays)
    ds.save(args.out)
    print(f"generated {len(ds.records)} records of {args.subcarriers} "
          f"subcarriers -> {args.out}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    import json

    scene = load_scene(args.scene)
    dataset = Dataset.load(args.dataset)
    config = OptimConfig(lr=args.lr, iterations=args.iterations, max_depth=args.max_depth,
                         method=args.method, num_rays=args.num_rays)
    log = learn_materials(scene, dataset, config)
    log.save(args.log)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(log.final_values, fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(f"calibrated {len(log.rows)} iterations, final loss "
          f"{log.losses[-1]:.3e} -> {args.log}")
    return EXIT_OK


def _cmd_orient(args) -> int:
    import json

    scene = load_scene(args.scene)
    grid = _grid_from_args(scene, args)
    config = OptimConfig(lr_angle=args.lr, iterations=args.iterations,
                         max_depth=args.max_depth, method=args.method,
                         num_rays=args.num_rays)
    log = optimize_orientation(scene, grid, config)
    log.save(args.log)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(log.final_values, fh, sort_keys=True, indent=1)
            fh.write("\n")
    gain_db = 10 * np.log10(log.losses[-1]) if log.losses[-1] > 0 else float("-inf")
    print(f"orientation tuned over {len(log.rows)} iterations, final region "
          f"gain {gain_db:.2f} dB -> {args.log}")
    return EXIT_OK


_COMMANDS = {"trace": _cmd_trace, "coverage": _cmd_coverage,
             "gen-dataset": _cmd_gen_dataset, "calibrate": _cmd_calibrate,
             "orient": _cmd_orient}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _USER_ERRORS as e:
        print(f"emtrace: error: {e}", file=sys.stderr)
        return EXIT_USER
    except Exception:
        print("emtrace: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
