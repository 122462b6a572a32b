"""emtrace benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload coverage_fib --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run sets up ``SETUP_REPS`` times (fresh import of
the package each time) and reports the median as ``setup_s``, then runs
seeded jobs until their timed work reaches ``--seconds``, checks every
job's outputs, reruns the first job to check byte-identical outputs and
prints the end-to-end metrics. With ``--trace 1`` it sets up once under
the tracer, runs each of ``TRACE_JOBS`` jobs untraced and then traced,
writes the spans under ``bench/out/`` and prints per-layer self
times and counts per job. Progress goes to stderr; the last line of
stdout is the result.
"""

from __future__ import annotations

import os

# one single-threaded process: numpy's BLAS must not start threads, so this
# is set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import hostref  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
PACKAGE = "emtrace"

SETUP_REPS = 5
TRACE_JOBS = 8

END_TO_END_UNITS = {"work_per_s": "items/s", "job_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

# per-layer metric -> (unit, where it comes from)
PER_LAYER = {
    "scene.load_s": ("s", "setup self", "scene.load"),
    "bvh.build_s": ("s", "setup self", "bvh.build"),
    "bvh.intersect_calls": ("count", "calls", "bvh.intersect"),
    "bvh.intersect_s": ("s", "self", "bvh.intersect"),
    "bvh.occluded_calls": ("count", "calls", "bvh.occluded"),
    "bvh.occluded_s": ("s", "self", "bvh.occluded"),
    "tracer.launch_calls": ("count", "calls", "tracer.launch"),
    "tracer.launch_s": ("s", "self", "tracer.launch"),
    "tracer.launched_candidates": ("count", "count", "tracer.launched_candidates"),
    "tracer.enumerate_s": ("s", "self", "tracer.enumerate"),
    "tracer.enumerated_candidates": ("count", "count", "tracer.enumerated_candidates"),
    "tracer.solve_calls": ("count", "calls", "tracer.solve"),
    "tracer.solve_s": ("s", "self", "tracer.solve"),
    "tracer.solve_accept_ratio": ("ratio", "ratio", ("tracer.solve_accepted", "tracer.solve")),
    "tracer.paths": ("count", "count", "tracer.paths"),
    "em.transfer_calls": ("count", "calls", "em.transfer"),
    "em.transfer_s": ("s", "self", "em.transfer"),
    "em.gains_s": ("s", "self", "em.gains"),
    "em.doppler_s": ("s", "self", "em.doppler"),
    "autodiff.gradient_calls": ("count", "calls", "autodiff.gradient"),
    "autodiff.gradient_s": ("s", "self", "autodiff.gradient"),
    "autodiff.tape_nodes": ("count", "count", "autodiff.tape_nodes"),
    "channel.coverage_s": ("s", "self", "channel.coverage"),
    "channel.cir_s": ("s", "self", "channel.cir"),
    "channel.ofdm_s": ("s", "self", "channel.ofdm"),
    "optim.iterations": ("count", "count", "optim.iterations"),
    "optim.loss_evals": ("count", "count", "optim.loss_evals"),
    "optim.self_s": ("s", "self", "optim.learn"),
    "optim.dataset_s": ("s", "setup self", "optim.dataset"),
    "trace_overhead_s": ("s", "overhead", None),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fresh_import():
    """Import the package from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    et = importlib.import_module(PACKAGE)
    if not os.path.abspath(et.__file__).startswith(SRC + os.sep):
        raise ImportError(f"{PACKAGE} imported from {et.__file__}, not from {SRC}")
    return et


def setup_once(workload, seed, tracer=None):
    """(module, state, nominal seconds, wall seconds) of one complete set-up.

    A ``tracer`` is installed as soon as the fresh package is imported.
    """
    before = hostref.reference_seconds()
    start = time.perf_counter()
    et = fresh_import()
    if tracer is not None:
        tracer.install()
    try:
        state = workload.setup(et, seed, OUT_DIR)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    after = hostref.reference_seconds()
    return et, state, hostref.nominal(wall, before, after), wall


class JobRunner:
    """Runs jobs, counts attempts and failures, and collects check errors."""

    def __init__(self, workload, et, state, seed):
        self.workload, self.et, self.state, self.seed = workload, et, state, seed
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, k, tracer=None):
        """(nominal s, wall s, input, output or None) of job ``k``.

        The host reference is timed just before and after the job, and the
        check runs after that. A ``tracer`` is installed for the job only.
        """
        w = self.workload
        inp = w.make_input(self.state, self.seed, k)
        self.attempted += 1
        before = hostref.reference_seconds()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            out = w.run(self.et, self.state, inp)
        except Exception:  # a failed job is counted, reported and skipped
            self.failed += 1
            log(f"job {k} failed:\n{traceback.format_exc()}")
            out = None
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        nominal = hostref.nominal(wall, before, hostref.reference_seconds())
        if out is not None:
            for e in w.check(self.et, self.state, inp, out, k):
                self.errors.append(f"job {k}: {e}")
        return nominal, wall, inp, out

    def rerun_matches(self, k, out) -> bool:
        """Rerun job ``k`` untimed and compare its serialized outputs byte for byte."""
        w = self.workload
        again = w.run(self.et, self.state, w.make_input(self.state, self.seed, k))
        same = w.serialize(again) == w.serialize(out)
        if not same:
            self.errors.append(f"job {k}: rerun outputs differ")
        return same


def measure(workload, seed, seconds):
    setups, setup_walls = [], []
    for _ in range(SETUP_REPS):
        et, state, nominal, wall = setup_once(workload, seed)
        setups.append(nominal)
        setup_walls.append(wall)
    runner = JobRunner(workload, et, state, seed)
    times, walls, items, first = [], [], 0, None
    spent, k = 0.0, 0
    while spent < seconds:
        nominal, wall, inp, out = runner.run(k)
        spent += wall
        if out is not None:
            times.append(nominal)
            walls.append(wall)
            items += workload.items(inp)
            if first is None:
                first = (k, out)
        k += 1
    if first is not None:
        runner.rerun_matches(*first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "work_per_s": items / sum(times) if times else 0.0,
        "job_s": statistics.median(times) if times else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    log(f"{workload.name} seed {seed}: {len(times)} jobs; wall seconds: set-up median "
        f"{statistics.median(setup_walls):.4f}, job median "
        f"{statistics.median(walls) if walls else 0.0:.4f}, work per s "
        f"{items / sum(walls) if walls else 0.0:.4f}")
    return runner, {n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()}


def traced(workload, seed):
    from spans import Tracer

    tracer = Tracer(PACKAGE)
    et, state, nominal, wall = setup_once(workload, seed, tracer)
    setup_scale = nominal / wall
    setup_self = {k: v * setup_scale for k, v in tracer.take()[0].items()}

    # each job runs untraced, then traced, so both see the same phase of host drift
    runner = JobRunner(workload, et, state, seed)
    plain_s = traced_s = 0.0
    self_s, calls, counts = Counter(), Counter(), Counter()
    for k in range(TRACE_JOBS):
        nominal, _, _, plain = runner.run(k)
        plain_s += nominal
        nominal, wall, _, out = runner.run(k, tracer)
        traced_s += nominal
        job_self, job_calls, job_counts = tracer.take()
        self_s.update({n: v * nominal / wall for n, v in job_self.items()})
        calls.update(job_calls)
        counts.update(job_counts)
        if out is not None and plain is not None and \
                workload.serialize(out) != workload.serialize(plain):
            runner.errors.append(f"job {k}: traced and untraced outputs differ")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.npy"))

    metrics = {}
    for name, (unit, source, key) in PER_LAYER.items():
        if source == "setup self":
            value = setup_self.get(key, 0.0)
        elif source == "self":
            value = self_s[key] / TRACE_JOBS
        elif source == "calls":
            value = calls[key] / TRACE_JOBS
        elif source == "count":
            value = counts[key] / TRACE_JOBS
        elif source == "ratio":
            num, den = key
            value = counts[num] / calls[den] if calls[den] else 0.0
        else:
            value = (traced_s - plain_s) / TRACE_JOBS
        metrics[name] = (float(value), unit)
    log(f"{workload.name} seed {seed}: {TRACE_JOBS} jobs, nominal seconds untraced "
        f"{plain_s:.3f}, traced {traced_s:.3f}")
    return runner, metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        log(f"no {PACKAGE} sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.trace:
        runner, metrics = traced(workload, args.seed)
    else:
        runner, metrics = measure(workload, args.seed, args.seconds)
    for e in runner.errors[:20]:
        log(f"CHECK FAILED {e}")
    result = {"correct": not runner.errors, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
