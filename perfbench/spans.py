"""Span recorder that times calls into deltashell from outside the package.

``Tracer.install()`` replaces each target function (or method) by a wrapper
that records a span: name, start, end, parent span and iteration id.
Modules import functions by name (``acoustic`` binds
``assemble_single_layer``, ``cli`` binds most of the API), so every module
attribute of ``deltashell`` that is bound to the same function object is
rebound, and ``restore()`` puts every one of them back.

Spans are kept in memory; ``summarize`` turns them into self times and call
counts per iteration.  A span's self time is its duration minus the time its
child spans cover.  Private helpers (``_layer_matrix`` and the like) are not
wrapped, so their time stays inside their caller's self time.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

# (module, attribute path, span name).  Methods are "Class.method"; a
# constructor's span is named after the class.
TARGETS = (
    ("geometry", "make_sphere_mesh", "geometry.make_sphere_mesh"),
    ("geometry", "make_volume_grid", "geometry.make_volume_grid"),
    ("kernels", "eval_incident", "kernels.eval_incident"),
    ("volume", "assemble_volume_operator", "volume.assemble_volume_operator"),
    ("volume", "volume_potential", "volume.volume_potential"),
    ("boundary", "assemble_single_layer", "boundary.assemble_single_layer"),
    ("boundary", "layer_potential", "boundary.layer_potential"),
    ("boundary", "layer_potential_gradient", "boundary.layer_potential_gradient"),
    ("boundary", "DeltaSystem.__init__", "boundary.DeltaSystem"),
    ("boundary", "DeltaSystem.solve", "boundary.DeltaSystem.solve"),
    ("_dense", "GuardedLU.__init__", "_dense.GuardedLU"),
    ("_dense", "GuardedLU.solve", "_dense.GuardedLU.solve"),
    ("farfield", "farfield_source", "farfield.farfield_source"),
    ("farfield", "farfield_kirchhoff", "farfield.farfield_kirchhoff"),
    ("farfield", "save_farfield_csv", "farfield.save_farfield_csv"),
    ("acoustic", "acoustic_to_schrodinger", "acoustic.acoustic_to_schrodinger"),
    ("acoustic", "eval_density", "acoustic.eval_density"),
    ("acoustic", "surface_density_trace", "acoustic.surface_density_trace"),
    ("acoustic", "acoustic_farfield", "acoustic.acoustic_farfield"),
    ("mie", "solve_partial_waves", "mie.solve_partial_waves"),
    ("mie", "mie_farfield_values", "mie.mie_farfield_values"),
    ("harness", "uniqueness_experiment", "harness.uniqueness_experiment"),
    ("cli", "run_command", "cli.run_command"),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS)
PACKAGE = "deltashell"


def _lu_size(args, kwargs, result):
    """Unknowns of the matrix handed to GuardedLU(A)."""
    A = args[1] if len(args) > 1 else kwargs["A"]
    return len(A)


def _csv_bytes(args, kwargs, result):
    """Size of the file save_farfield_csv(ff, path) has just written."""
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# span name -> function(args, kwargs, result) whose value is kept with the span
PROBES = {
    "_dense.GuardedLU": _lu_size,
    "farfield.save_farfield_csv": _csv_bytes,
}


class Tracer:
    """In-memory spans ``[name, start, end, parent, iteration, info]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.iteration = None  # spans recorded while None are left out of summarize()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.iteration, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if probe is not None:
                spans[idx][5] = probe(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, path, name in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._rebind(cls, meth, self.wrap(cls.__dict__[meth], name))
                continue
            orig = getattr(mod, path)
            wrapper = self.wrap(orig, name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def rebound_count(self) -> int:
        return len(self._undo)


def calibrate_overhead(n: int = 20000) -> float:
    """Seconds one wrapped call costs beyond the bare call."""
    def noop():
        return None

    tracer = Tracer()
    tracer.iteration = 0
    wrapped = tracer.wrap(noop, "calibration")
    clock = time.perf_counter
    best_bare = best_wrapped = float("inf")
    for _ in range(5):
        tracer.spans.clear()
        t0 = clock()
        for _ in range(n):
            noop()
        t1 = clock()
        for _ in range(n):
            wrapped()
        t2 = clock()
        best_bare = min(best_bare, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
    return max(best_wrapped - best_bare, 0.0) / n


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def summarize(spans, iteration_walls: dict, span_cost: float) -> dict:
    """Per-layer numbers from the spans of one run.

    ``<span>.self_s`` is the median over iterations of the span's self time
    in that iteration plus its self time during set-up (iteration "setup");
    ``<span>.calls`` is counted the same way.  ``trace.unattributed_s`` is the
    iteration wall time not covered by a top-level span, and
    ``trace.overhead_frac`` the calibrated wrapper cost of the iteration's
    spans over its wall time (both medians).
    """
    def bucket():
        return {"self": {}, "calls": {}, "root": 0.0, "n": 0, "lu_n": [], "lu_s": 0.0, "csv_bytes": 0}

    per_iter: dict = {}
    for span, st in zip(spans, self_times(spans)):
        name, start, end, parent, it, info = span
        b = per_iter.setdefault(it, bucket())
        b["self"][name] = b["self"].get(name, 0.0) + st
        b["calls"][name] = b["calls"].get(name, 0) + 1
        b["n"] += 1
        if parent < 0:
            b["root"] += end - start
        if name == "_dense.GuardedLU":
            b["lu_n"].append(info)
            b["lu_s"] += st
        elif name == "farfield.save_farfield_csv":
            b["csv_bytes"] += info

    setup = per_iter.get("setup", bucket())
    iters = [per_iter.get(i, bucket()) for i in sorted(iteration_walls)]
    if not iters:
        raise ValueError("no iteration was traced")

    def med(values):
        return float(statistics.median(values))

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = med([b["self"].get(name, 0.0) for b in iters]) + setup["self"].get(name, 0.0)
        out[f"{name}.calls"] = med([b["calls"].get(name, 0) for b in iters]) + setup["calls"].get(name, 0)

    lu_sizes = [n for b in iters for n in b["lu_n"]]
    n_max = max(lu_sizes, default=0)
    out["_dense.unknowns"] = float(n_max)
    out["_dense.matrix_mb"] = 16.0 * n_max**2 / 1e6
    rates = [sum(8.0 / 3.0 * n**3 for n in b["lu_n"]) / b["lu_s"] / 1e9 for b in iters if b["lu_s"] > 0]
    out["_dense.lu_gflops"] = med(rates) if rates else 0.0
    out["farfield.csv_mb"] = med([b["csv_bytes"] / 1e6 for b in iters])

    walls = [iteration_walls[i] for i in sorted(iteration_walls)]
    out["trace.unattributed_s"] = med([w - b["root"] for w, b in zip(walls, iters)])
    out["trace.overhead_frac"] = med([b["n"] * span_cost / w for w, b in zip(walls, iters)])
    out["trace.spans"] = med([b["n"] for b in iters])
    return out
