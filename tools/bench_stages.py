"""Stage seconds of the solver, read from its own DEBUG records, as BENCH rows.

    python3 tools/bench_stages.py --label NAME [--iterations 4] [--seed 1702]

Runs the ``sphere_bem``, ``farfield_table`` and ``uniqueness_desk`` workloads of
``perfbench/workloads.py`` in this process, on the ``src/`` next to this directory, and writes
``BENCH_<NAME>.json`` in the repository root: one row per workload and stage,

    {workload, stage, seconds, accuracy, bound, git_rev, threads}

with ``seconds`` the median over the iterations of the stage's seconds in one iteration:

* every stage but ``rest`` from one record of the ``deltashell`` logger, whose last arg is
  its seconds: ``fill`` the kernel, ``system_matrix`` the writes of I + K diag(w), ``LU`` the
  factorization (its record covers the writes, which are taken out here), ``krylov`` the GMRES
  runs of the solves that take GMRES for their corrections, ``solve`` the rest of the solves
  (the back-solves and residuals; its record covers the GMRES runs, which are taken out here),
  ``farfield`` the far-field sums (``farfield_source``) and ``sampling`` the media's (V, alpha)
  from their density and sound speed (each 0 where no such record is written);
* ``rest``: the iteration's wall time less the stages above (a CLI run's config, mesh and
  grid, incident fields, Kirchhoff route, CSV write, harness).

``accuracy`` is the workload's own figure and ``bound`` the gate it must meet: the far-field
error against the partial-wave oracle (at most 0.02), the table's gap between its two far-field
routes (at most 1e-3), or the desk's smallest distance over noise floor (at least 10).  Like the
benchmark, the BLAS thread count is the number of usable cores unless ``OPENBLAS_NUM_THREADS``
is set.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402  (after the thread count and the path)

STAGES = ("fill", "system_matrix", "LU", "krylov", "solve", "farfield", "sampling", "rest")
RECORDS = {"delta-shell kernel": "fill", "delta-shell system matrix": "system_matrix", "delta-shell LU": "LU",
           "delta-shell GMRES": "krylov", "delta-shell solve": "solve", "delta-shell far field": "farfield",
           "delta-shell sampling": "sampling"}
GATES = {"sphere_bem": ("oracle_err", 0.02), "farfield_table": ("two_route_gap", 1e-3),
         "uniqueness_desk": ("separation", 10.0)}


class StageClock(logging.Handler):
    """Adds each solver record's seconds to its stage."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.seconds = dict.fromkeys(STAGES, 0.0)

    def emit(self, record: logging.LogRecord) -> None:
        stage = RECORDS.get(record.msg.split(":")[0])
        if stage is not None:
            self.seconds[stage] += float(record.args[-1])


def git_rev() -> str:
    """The short commit of the tree measured, with "-dirty" when ``src/`` differs from it."""
    git = ["git", "-C", str(ROOT)]
    try:
        rev = subprocess.run(git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True)
        clean = subprocess.run(git + ["diff", "--quiet", "HEAD", "--", "src"]).returncode == 0
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev.stdout.strip() + ("" if clean else "-dirty")


def measure(name: str, iterations: int, seed: int, clock: StageClock) -> list[dict]:
    """The stage rows of ``iterations`` iterations of one workload."""
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as workdir:
        inputs = workload.setup(seed, workdir)
        samples, accuracy = {stage: [] for stage in STAGES}, []
        for _ in range(iterations):
            clock.seconds = dict.fromkeys(STAGES, 0.0)
            start = time.perf_counter()
            result = workload.iterate(inputs)
            wall = time.perf_counter() - start
            passed, diagnostics = workload.check(inputs, result)
            if not passed:
                raise RuntimeError(f"{name}: the correctness gate failed: {diagnostics}")
            clock.seconds["LU"] -= clock.seconds["system_matrix"]
            clock.seconds["solve"] -= clock.seconds["krylov"]
            clock.seconds["rest"] = wall - sum(clock.seconds.values())
            for stage in STAGES:
                samples[stage].append(clock.seconds[stage])
            accuracy.append(diagnostics[GATES[name][0]])
    rev = git_rev()
    return [{"workload": name, "stage": stage, "seconds": statistics.median(samples[stage]),
             "accuracy": statistics.median(accuracy), "bound": GATES[name][1], "git_rev": rev,
             "threads": int(THREADS)} for stage in STAGES]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1702)
    args = parser.parse_args()

    clock, logger = StageClock(), logging.getLogger("deltashell")
    level = logger.level
    logger.setLevel(logging.DEBUG)
    logger.addHandler(clock)
    try:
        rows = [row for name in GATES for row in measure(name, args.iterations, args.seed, clock)]
    finally:
        logger.removeHandler(clock)
        logger.setLevel(level)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(rows, indent=1) + "\n")
    for row in rows:
        print(f"{row['workload']:16s} {row['stage']:14s} {row['seconds']:7.3f} s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
