"""deltashell benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sphere_bem --seed 1702 --seconds 20 --trace 0

Each run starts fresh worker processes (worker.py) with the BLAS thread
count pinned to the number of usable cores before numpy loads.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the per-layer metrics from a run whose calls into deltashell
are wrapped in spans.  Every iteration is checked for correctness.  A record
of the run (versions, samples, diagnostics, spans) is written under
``.perfbench_out/``; the last stdout line is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1702
SETUP_SAMPLES = 3    # set-up is timed in this many processes; the median is reported
DEADLINE_S = 170.0   # the whole run, all worker processes included


class BenchError(RuntimeError):
    pass


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; return its JSON result and its start time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                          stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
        finally:
            if proc.poll() is None:  # timed out, or this process is being stopped
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), spawned


def measure(args, workdir: str) -> dict:
    threads = usable_cores()
    env = worker_env(threads)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            res, spawned = run_worker(common + ["--seconds", "0", "--setup-only"], env, deadline)
            setup_samples.append(res["setup_done"] - spawned)
    res, spawned = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                              env, deadline)
    setup_samples.append(res["setup_done"] - spawned)
    res["setup_samples"] = setup_samples
    res["env"] = {"threads": threads, "nproc": os.cpu_count(), "git_revision": git_revision(),
                  "python": sys.version.split()[0], **res.pop("versions")}
    return res


def diagnostic_median(res: dict, key: str) -> float:
    """Median of a per-iteration diagnostic; 0 where the workload does not produce it."""
    values = [d[key] for d in res["diagnostics"] if key in d]
    return float(statistics.median(values)) if values else 0.0


def collect_metrics(res: dict, trace: bool) -> dict:
    ok_walls = [w for w, ok in zip(res["walls"], res["passed"]) if ok]
    failed = res["passed"].count(False)
    if trace:
        values = dict(res["layers"])
        values["oracle_err"] = diagnostic_median(res, "oracle_err")
        values["separation"] = diagnostic_median(res, "separation")
        values["failed_frac"] = failed / len(res["passed"])
        return values
    return {
        "run_s": statistics.median(ok_walls or res["walls"]),
        "setup_s": statistics.median(res["setup_samples"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="deltashell benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"draws the rotations applied to the inputs (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time; whole iterations, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exit, so the worker is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "deltashell" / "__init__.py").is_file():
        print(f"perfbench: no deltashell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        res = measure(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = collect_metrics(res, bool(args.trace))
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    attempted, failed = len(res["passed"]), res["passed"].count(False)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = res.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, **res}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "iteration", "info"], "spans": spans}) + "\n")

    env = res["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"threads={env['threads']} nproc={env['nproc']} rev={env['git_revision'][:12]} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"openblas={env['numpy_openblas']}/{env['scipy_openblas']}")
    print(f"  iterations {attempted}, failed {failed}; wall per iteration "
          + ", ".join(f"{w:.3f}" for w in res["walls"]) + " s")
    for d in res["diagnostics"]:
        print("  check " + json.dumps(d, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  record: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
