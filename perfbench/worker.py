"""One workload in one fresh process; started by run.py, not by hand.

The parent sets the BLAS thread variables and PYTHONPATH before this process
starts, so numpy loads with them.  The last stdout line is a JSON object:
``{"setup_done": <monotonic time>}`` with ``--setup-only``, otherwise the
iteration samples, per-iteration checks, and (with ``--trace 1``) the
per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy
from scipy.linalg import blas

import deltashell  # noqa: F401  (import time is part of set-up)
from deltashell import cli  # noqa: F401

from spans import Tracer, calibrate_overhead, summarize
from workloads import WORKLOADS

MAX_LOOP_S = 120.0  # never start another iteration past this, whatever --seconds says


def blas_info() -> dict:
    """numpy, scipy and the OpenBLAS builds behind each (they can differ)."""
    def openblas(module) -> str:
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas": openblas(np), "scipy_openblas": openblas(scipy)}


def zgemm_gflops(n: int = 1024, repeats: int = 3) -> float:
    """Best complex GEMM rate through scipy's BLAS, the library the LU uses."""
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    b = np.asfortranarray(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        blas.zgemm(1.0, a, b)
        best = min(best, time.perf_counter() - t0)
    return 8.0 * n**3 / best / 1e9


def _failure() -> tuple[bool, dict]:
    """Report the exception being handled; the iteration counts as failed."""
    traceback.print_exc()
    return False, {"error": traceback.format_exc().strip().splitlines()[-1]}


def run_iterations(wl, inputs, seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop: iterations back to back until the next one would overrun ``seconds``.

    The loop stops at the first failed iteration: an exception from the
    package or a failed check is reported, never retried.
    """
    walls, passed, diags = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.iteration = len(walls)
        t0 = time.perf_counter()
        try:
            result = wl.iterate(inputs)
        except Exception:
            walls.append(time.perf_counter() - t0)
            ok, diag = _failure()
        else:
            walls.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.iteration = None  # the check is not part of the iteration
            try:
                ok, diag = wl.check(inputs, result)
            except Exception:
                ok, diag = _failure()
        if tracer is not None:
            tracer.iteration = None
        passed.append(ok)
        diags.append(diag)
        elapsed = time.perf_counter() - start
        if not ok or elapsed + statistics.median(walls) > seconds or elapsed > MAX_LOOP_S:
            break
    return {"walls": walls, "passed": passed, "diagnostics": diags}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.iteration = "setup"
    inputs = wl.setup(args.seed, args.workdir)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    out = {"setup_done": setup_done, "versions": blas_info()}
    try:
        out.update(run_iterations(wl, inputs, args.seconds, tracer))
    finally:
        if tracer is not None:
            out["rebound_attributes"] = tracer.rebound_count()
            tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        walls = dict(enumerate(out["walls"]))
        layers = summarize(tracer.spans, walls, calibrate_overhead())
        layers["_dense.zgemm_gflops"] = zgemm_gflops()
        out["layers"] = layers
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
