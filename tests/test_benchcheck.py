"""tools/benchcheck.py runs the benchmark's own jobs and checks untimed."""

import hashlib
import io
import pathlib

import emtrace

ROOT = pathlib.Path(__file__).resolve().parents[1]


class _Counting:
    """A workload whose job k outputs k; job 1 fails its check, job 2 raises."""

    name = "counting"

    def setup(self, et, seed, workdir):
        return seed

    def make_input(self, state, seed, k):
        return k

    def run(self, et, state, k):
        if k == 2:
            raise RuntimeError("no result")
        return k

    def check(self, et, state, inp, out, k):
        return ["wrong"] if k == 1 else []

    def serialize(self, out):
        return bytes([out])


def test_reports_failing_jobs_and_digests_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from benchcheck import check_jobs

    out = io.StringIO()
    summary = check_jobs(emtrace, _Counting(), range(1, 2), range(0, 3), out)
    assert summary == {"workload": "counting", "jobs": 3, "failed": 2,
                       "sha256": hashlib.sha256(b"\x00\x01").hexdigest()}
    printed = out.getvalue().splitlines()
    assert printed[0] == "FAIL seed 1 job 1: wrong"
    assert printed[1].startswith("FAIL seed 1 job 2: Traceback")
    assert "RuntimeError: no result" in out.getvalue()


def test_runs_the_benchmark_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from benchcheck import check_jobs
    from workloads import WORKLOADS

    out = io.StringIO()
    summary = check_jobs(emtrace, WORKLOADS["cir_exh"], range(1, 2), range(0, 2), out)
    assert (summary["jobs"], summary["failed"], out.getvalue()) == (2, 0, "")
