"""Run the benchmark's own checks untimed, and digest its outputs.

Usage (from the repository root):

    python3 tools/benchcheck.py --workload coverage_fib --seeds 1-4 --jobs 0-999

For every seed it sets a workload of ``bench/workloads.py`` up once, then
runs each job of the index range through ``make_input``, ``run``, ``check``
and ``serialize``, in process and without timing. It prints every failing
job (an exception or a check error) and, last, one JSON line with the job
count, the failure count and one SHA-256 over the ``serialize`` bytes of all
jobs in order. A timed run checks only the jobs it reaches, so a faster
program checks jobs a slower one never ran; this checks a fixed range. Two
checkouts produced byte-identical outputs on the benchmark's own inputs when
their digests match. The package is imported from this checkout's ``src``.
Exits 1 when any job fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(text: str) -> range:
    """'3' or '0-999' (inclusive) as a range."""
    lo, _, hi = text.partition("-")
    try:
        return range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or N-M, got {text!r}") from None


def check_jobs(et, workload, seeds, jobs, out=sys.stdout) -> dict:
    """Run and check ``jobs`` of ``workload`` for each seed; a summary dict."""
    digest, failed, count = hashlib.sha256(), 0, 0
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            state = workload.setup(et, seed, workdir)
        for k in jobs:
            count += 1
            inp = workload.make_input(state, seed, k)
            try:
                result = workload.run(et, state, inp)
                errors = workload.check(et, state, inp, result, k)
            except Exception:
                result, errors = None, [traceback.format_exc()]
            if result is not None:
                digest.update(workload.serialize(result))
            if errors:
                failed += 1
                print(f"FAIL seed {seed} job {k}: " + "; ".join(errors), file=out, flush=True)
    return {"workload": workload.name, "jobs": count, "failed": failed,
            "sha256": digest.hexdigest()}


def main(argv=None) -> int:
    # as in bench/run.py: one single-threaded process, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    workloads = importlib.import_module("workloads").WORKLOADS
    et = importlib.import_module("emtrace")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seeds", type=_span, default=range(1, 2), metavar="N[-M]")
    parser.add_argument("--jobs", type=_span, default=range(0, 10), metavar="N[-M]")
    args = parser.parse_args(argv)
    summary = check_jobs(et, workloads[args.workload], args.seeds, args.jobs)
    print(json.dumps(summary))
    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
