"""Batch front door: JSON configs in, CSV/JSON artifacts out.

Subcommands
-----------
forward    one solve; writes density CSV, field CSV, metadata JSON
farfield   plane-wave far-field table (source route), optional flux-integral
           cross-check recorded in the metadata
acoustic   medium pipeline: far-field table per requested frequency
oracle     partial-wave reference far field on the same CSV schema
verify     standard harness bundle; exit code 3 if any report fails
compare    L^2 / max relative distance between two far-field CSVs

Exit codes: 0 ok, 1 compute failure, 2 config error, 3 verification failure;
a config error names the offending field.  Outputs embed the config digest
and the convention block; the same config run with the same BLAS thread
count, on any number of cores, produces byte-identical files (BLAS
reductions may change with the thread count).  ``--log-level`` (default
WARNING) writes the ``deltashell`` log to stderr, such as the DEBUG line of
each factorization and solve; it changes no output file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import acoustic as ac
from . import harness as hn
from . import mie
from .boundary import DeltaSpec, DeltaSystem, eval_total_field
from .farfield import (
    CONVENTIONS,
    FarFieldPattern,
    _fmt,
    check_enclosing_radius,
    direction_grid,
    farfield_kirchhoff,
    farfield_source,
    load_farfield_csv,
    save_farfield_csv,
)
from .geometry import load_mesh, make_sphere_mesh, make_volume_grid
from .kernels import Exponential, plane_wave, sigma_pair_for_xi
from .volume import PotentialSample

__all__ = ["main", "ConfigError", "run_command"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Strict config validation
# ---------------------------------------------------------------------------

_BUMP_KEYS = {"amplitude", "center", "width"}
_SCHEMAS = {
    "mesh": {"kind", "radius", "subdivisions", "path"},
    "grid": {"bbox", "n"},
    "cutoff": {"r_inner", "r_outer"},
    "incident": {"kind", "direction"},
    "observations": {"n_theta", "n_phi"},
    "incidences": {"n_theta", "n_phi", "directions"},
    "kirchhoff": {"radius", "n_theta", "n_phi"},
    "medium": {"shell_density", "rho_bumps", "v_bumps", "cutoff"},
    "oracle": {"a", "alpha", "shells", "L"},
    "verify": {"subdivision", "grid_n", "k", "w", "xi", "R"},
}
_TOP_KEYS = {
    "forward": {"k", "mesh", "alpha", "potential_bumps", "cutoff", "grid", "incident", "output"},
    "farfield": {"k", "mesh", "alpha", "potential_bumps", "cutoff", "grid",
                 "incidences", "observations", "kirchhoff", "output"},
    "acoustic": {"frequencies", "mesh", "medium", "grid", "incidences", "observations", "output"},
    "oracle": {"k", "oracle", "incidences", "observations", "output"},
    "verify": {"verify", "output"},
}


def _check_keys(obj: dict, allowed: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"config section '{path}' must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}{key}'")
        if key in _SCHEMAS and isinstance(obj[key], dict):
            _check_keys(obj[key], _SCHEMAS[key], f"{path}{key}.")
        if key in ("rho_bumps", "v_bumps", "potential_bumps") and obj[key] is not None:
            if not isinstance(obj[key], list):
                raise ConfigError(f"config section '{path}{key}' must be a list of bumps, got {obj[key]!r}")
            for i, bump in enumerate(obj[key]):
                _check_keys(bump, _BUMP_KEYS, f"{path}{key}[{i}].")


def validate_config(cfg: dict, command: str) -> None:
    if command not in _TOP_KEYS:
        raise ConfigError(f"unknown command '{command}'")
    _check_keys(cfg, _TOP_KEYS[command], "")
    if "k" in _TOP_KEYS[command]:
        _positive(cfg.get("k"), "k")


def _count(spec: dict, key: str, name: str, default=None, *, minimum: int, maximum: float = np.inf) -> int:
    """Integer ``spec[key]`` in [minimum, maximum]; ConfigError naming the field otherwise."""
    val = spec.get(key, default)
    integral = isinstance(val, (int, float)) and not isinstance(val, bool) and float(val).is_integer()
    if not (integral and minimum <= val <= maximum):
        bounds = f">= {minimum}" if maximum == np.inf else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"config key '{name}' must be an integer {bounds}, got {val!r}")
    return int(val)


@contextmanager
def _names(name: str, errors=(TypeError, ValueError)):
    """Re-raise an exception of type ``errors`` of the block as a ConfigError naming the field ``name``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"config key '{name}': {exc}") from exc


def _finite(val, name: str, length: int | None = None):
    """Finite JSON number ``val`` as a float, or with ``length`` a list of that many
    as a float array; ConfigError naming the field otherwise (a string is no number)."""
    items = [val] if length is None else val
    if not ((length is None or isinstance(val, list) and len(val) == length)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) and -np.inf < v < np.inf for v in items)):
        what = "a finite number" if length is None else f"a list of {length} finite numbers"
        raise ConfigError(f"config key '{name}' must be {what}, got {val!r}")
    return float(val) if length is None else np.array(val, dtype=float)


def _positive(val, name: str) -> float:
    """Finite positive number ``val``; ConfigError naming the field otherwise."""
    if _finite(val, name) <= 0:
        raise ConfigError(f"config key '{name}' must be a positive number, got {val!r}")
    return float(val)


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------

def _build_mesh(cfg: dict):
    spec = cfg.get("mesh")
    if spec is None:
        raise ConfigError("missing 'mesh' section")
    kind = spec.get("kind")
    if kind == "sphere":
        return make_sphere_mesh(_positive(spec.get("radius", 1.0), "mesh.radius"),
                                _count(spec, "subdivisions", "mesh.subdivisions", 2, minimum=0))
    if kind == "off":
        with _names("mesh.path"):
            return load_mesh(spec["path"])
    raise ConfigError(f"mesh.kind must be 'sphere' or 'off', got {kind!r}")


def _build_grid(cfg: dict):
    spec = cfg.get("grid")
    if spec is None:
        return None
    bbox = spec.get("bbox")
    for bound in bbox if isinstance(bbox, list) else [bbox]:
        _finite(bound, "grid.bbox", 3 if isinstance(bound, list) else None)
    if not isinstance(bbox, list):
        bbox = (-abs(bbox), abs(bbox))
    n = _count(spec, "n", "grid.n", minimum=2)
    try:
        return make_volume_grid(tuple(bbox), n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key 'grid.bbox' must be [lo, hi] with lo < hi, got {bbox!r} ({exc})")


def _build_bumps(entries, name: str):
    return tuple(ac.GaussianBump(amplitude=_finite(b.get("amplitude"), f"{name}[{i}].amplitude"),
                                 center=tuple(_finite(b.get("center"), f"{name}[{i}].center", 3).tolist()),
                                 width=_positive(b.get("width"), f"{name}[{i}].width"))
                 for i, b in enumerate(entries or []))


def _build_cutoff(spec, name: str):
    if spec is None:
        return ac.RadialCutoff(2.0, 3.0)
    r_inner, r_outer = (_positive(spec.get(key), f"{name}.{key}") for key in ("r_inner", "r_outer"))
    with _names(name):
        return ac.RadialCutoff(r_inner, r_outer)


def _build_potential(cfg: dict, grid):
    bumps = _build_bumps(cfg.get("potential_bumps"), "potential_bumps")
    cutoff = _build_cutoff(cfg.get("cutoff"), "cutoff")
    if not bumps or grid is None:
        return None
    vals, _, _ = ac._sum_bumps(bumps, grid.cell_center)
    c_val, _, _ = cutoff.fields(grid.cell_center)
    return PotentialSample(grid=grid, values=vals * c_val)


def _panel_values(spec, mesh, name: str):
    """The JSON number ``spec``, or one finite value per panel from the CSV file ``{'csv': path}``."""
    if not (isinstance(spec, dict) and "csv" in spec):
        return _finite(spec, name)
    with _names(f"{name}.csv"):
        return mesh.per_panel(np.loadtxt(spec["csv"], delimiter=",", ndmin=1).ravel(), spec["csv"])


def _unit_directions(raw, name: str, single: bool = False) -> np.ndarray:
    """The rows of ``raw`` scaled to unit length.

    ``raw`` is a list of 3-vectors, row i named ``name[i]``, or with ``single``
    one 3-vector named ``name`` (returned as one row).  ConfigError naming the
    field unless every row is a finite nonzero 3-vector.
    """
    with _names(name):
        dirs = np.array(raw, dtype=float, ndmin=2)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or (single and np.ndim(raw) != 1):
        what = "a 3-vector" if single else "a list of 3-vectors"
        raise ConfigError(f"'{name}' must be {what}, got {raw!r}")
    norms = np.linalg.norm(dirs, axis=1)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
    if len(bad):
        field = name if single else f"{name}[{bad[0]}]"
        raise ConfigError(f"'{field}' must be a finite nonzero vector")
    dirs /= norms[:, None]
    return dirs


def _direction_set(spec, name: str, default_nt=16, default_np=32):
    if spec is None:
        spec = {}
    if "directions" in spec:
        dirs = _unit_directions(spec["directions"], f"{name}.directions")
        weights = np.full(len(dirs), 4.0 * np.pi / len(dirs))
        return dirs, weights, None
    g = direction_grid(_count(spec, "n_theta", f"{name}.n_theta", default_nt, minimum=2),
                       _count(spec, "n_phi", f"{name}.n_phi", default_np, minimum=4))
    return g.normals, g.weights, g


_SINGLE_INCIDENCE = {"directions": [[0.0, 0.0, 1.0]]}


def _metadata(cfg: dict, extra: dict) -> dict:
    md = {"config_digest": config_digest(cfg), "conventions": CONVENTIONS}
    md.update(extra)
    return md


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_rows(path: Path, header: str, columns) -> None:
    """CSV ``header``, then row i: i and the i-th value of each column."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(zip(*columns)):
            fh.write(f"{i}," + ",".join(map(_fmt, row)) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_forward(cfg: dict, out: Path, quiet: bool) -> int:
    mesh = _build_mesh(cfg)
    grid = _build_grid(cfg)
    k = float(cfg["k"])
    delta = DeltaSpec(mesh=mesh, alpha=_panel_values(cfg.get("alpha", 0.0), mesh, "alpha"))
    V = _build_potential(cfg, grid)
    inc_spec = cfg.get("incident", {"kind": "plane", "direction": [0.0, 0.0, 1.0]})
    if inc_spec.get("kind", "plane") != "plane":
        raise ConfigError("forward supports plane-wave incidence")
    inc = plane_wave(_unit_directions(inc_spec.get("direction"), "incident.direction", single=True)[0])

    sol = DeltaSystem(V, delta, k).solve(inc)

    prefix = (cfg.get("output") or {}).get("prefix", "forward")
    dens_path = out / f"{prefix}_density.csv"
    _write_rows(dens_path, "panel,cx,cy,cz,re_eta,im_eta,alpha",
                (*mesh.panel_centroid.T, sol.eta.real, sol.eta.imag, delta.alpha))
    if grid is not None:
        if V is not None:
            values = sol.volume_field.values
        else:
            values = np.asarray(eval_total_field(sol, grid.cell_center, near_warning=False))
        _write_rows(out / f"{prefix}_field.csv", "cell,x,y,z,re_psi,im_psi",
                    (*grid.cell_center.T, values.real, values.imag))

    _write_json(out / f"{prefix}_metadata.json", _metadata(cfg, {
        "k": k,
        "residual": sol.residual,
        "alpha_l4_norm": delta.lp_norm(4.0),
        "n_panels": mesh.n_panels,
        "n_support_cells": int(len(sol.support)),
    }))
    if not quiet:
        print(f"forward: residual {sol.residual:.2e}, wrote {dens_path.name}")
    return 0


def cmd_farfield(cfg: dict, out: Path, quiet: bool) -> int:
    mesh = _build_mesh(cfg)
    grid = _build_grid(cfg)
    k = float(cfg["k"])
    delta = DeltaSpec(mesh=mesh, alpha=_panel_values(cfg.get("alpha", 0.0), mesh, "alpha"))
    V = _build_potential(cfg, grid)
    inc_dirs, _, _ = _direction_set(cfg.get("incidences", _SINGLE_INCIDENCE), "incidences")
    obs_dirs, obs_w, _ = _direction_set(cfg.get("observations"), "observations")

    kc = cfg.get("kirchhoff")
    if kc is not None:
        flux_nodes = {"n_theta": _count(kc, "n_theta", "kirchhoff.n_theta", 24, minimum=2),
                      "n_phi": _count(kc, "n_phi", "kirchhoff.n_phi", 48, minimum=4)}
        radius = _positive(kc.get("radius"), "kirchhoff.radius")
        with _names("kirchhoff.radius"):
            check_enclosing_radius(radius, mesh, V)

    sols = DeltaSystem(V, delta, k).solve_many([plane_wave(d) for d in inc_dirs])
    values = farfield_source(sols, obs_dirs)
    extra = {}
    if kc is not None:
        row = farfield_kirchhoff(sols[0], radius, obs_dirs, **flux_nodes)
        num = float(np.linalg.norm(row - values[0]))
        den = float(np.linalg.norm(values[0])) or 1.0
        extra["kirchhoff_vs_source_rel_l2"] = num / den

    ff = FarFieldPattern(k=k, values=values, observations=obs_dirs,
                         obs_weights=obs_w, incidence=inc_dirs)
    prefix = (cfg.get("output") or {}).get("prefix", "farfield")
    save_farfield_csv(ff, out / f"{prefix}.csv", _metadata(cfg, extra))
    if not quiet:
        print(f"farfield: wrote {prefix}.csv" + (
            f" (two-route gap {extra['kirchhoff_vs_source_rel_l2']:.2e})" if extra else ""))
    return 0


def cmd_acoustic(cfg: dict, out: Path, quiet: bool) -> int:
    frequencies = cfg.get("frequencies", [1.0])
    if not (isinstance(frequencies, list) and frequencies):
        raise ConfigError(f"config key 'frequencies' must be a non-empty list, got {frequencies!r}")
    omegas = [_positive(w, f"frequencies[{i}]") for i, w in enumerate(frequencies)]
    prefix = (cfg.get("output") or {}).get("prefix", "acoustic")
    names = [f"{prefix}_w{omega:g}.csv" for omega in frequencies]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"config key 'frequencies[{i}]' would overwrite {name}, the table of "
                              f"frequencies[{names.index(name)}]: frequencies must differ in 6 significant digits")
    mesh = _build_mesh(cfg)
    grid = _build_grid(cfg)
    if grid is None:
        raise ConfigError("acoustic runs need a 'grid' section")
    med_cfg = cfg.get("medium", {})
    cutoff = _build_cutoff(med_cfg.get("cutoff"), "medium.cutoff")
    shell_density = _panel_values(med_cfg.get("shell_density", 0.0), mesh, "medium.shell_density")
    rho_bumps = _build_bumps(med_cfg.get("rho_bumps"), "medium.rho_bumps")
    v_bumps = _build_bumps(med_cfg.get("v_bumps"), "medium.v_bumps")
    with _names("medium.cutoff.r_inner"):
        medium = ac.MediumSpec(gamma=mesh, shell_density=shell_density, rho_bumps=rho_bumps,
                               v_bumps=v_bumps, cutoff=cutoff)
    inc_dirs, _, _ = _direction_set(cfg.get("incidences", _SINGLE_INCIDENCE), "incidences")
    obs_dirs, obs_w, obs_grid = _direction_set(cfg.get("observations"), "observations")
    if obs_grid is None:
        raise ConfigError("acoustic observations must be a (n_theta, n_phi) grid")

    with _names("grid", ac.MediumGridError), _names("medium", ac.MediumValidityError):
        patterns = ac.acoustic_farfield(medium, omegas, inc_dirs, obs_grid, grid)
    for omega, name, ff in zip(frequencies, names, patterns):
        save_farfield_csv(ff, out / name, _metadata(cfg, {"omega": omega}))
        if not quiet:
            print(f"acoustic: wrote {name}")
    return 0


def cmd_oracle(cfg: dict, out: Path, quiet: bool) -> int:
    spec = cfg.get("oracle", {})
    k = float(cfg["k"])
    a = _positive(spec.get("a", 1.0), "oracle.a")
    alpha = _finite(spec.get("alpha", 0.0), "oracle.alpha")
    shells = spec.get("shells", [])
    pairs = [_finite(pair, "oracle.shells", 2) for pair in (shells if isinstance(shells, list) else [shells])]
    with _names("oracle.shells"):
        medium = mie.RadialMedium(a=a, alpha=alpha, shells=pairs)
    # solve_partial_waves clamps L to [4, LMAX_HARD]; reject what it would clamp
    L = None if spec.get("L") is None else _count(spec, "L", "oracle.L", minimum=4, maximum=mie.LMAX_HARD)
    psol = mie.solve_partial_waves(medium, k, L)
    inc_dirs, _, _ = _direction_set(cfg.get("incidences", _SINGLE_INCIDENCE), "incidences")
    obs_dirs, obs_w, _ = _direction_set(cfg.get("observations"), "observations")
    values = np.stack([mie.mie_farfield_values(psol, d, obs_dirs) for d in inc_dirs])
    ff = FarFieldPattern(k=k, values=values, observations=obs_dirs,
                         obs_weights=obs_w, incidence=inc_dirs)
    prefix = (cfg.get("output") or {}).get("prefix", "oracle")
    save_farfield_csv(ff, out / f"{prefix}.csv", _metadata(cfg, {"L": psol.L}))
    if not quiet:
        print(f"oracle: wrote {prefix}.csv (L = {psol.L})")
    return 0


def cmd_verify(cfg: dict, out: Path, quiet: bool) -> int:
    spec = cfg.get("verify", {})
    subdivision = _count(spec, "subdivision", "verify.subdivision", 2, minimum=0)
    grid_n = _count(spec, "grid_n", "verify.grid_n", 10, minimum=2)
    k = _positive(spec.get("k", 1.0), "verify.k")
    w = _finite(spec.get("w", 0.5), "verify.w")
    if w < 0:
        raise ConfigError(f"config key 'verify.w' must be >= 0, got {w:g}")
    R = _positive(spec.get("R", 1.8), "verify.R")
    xi = _finite(spec.get("xi", [1.0, 0.0, 0.0]), "verify.xi", 3)
    with _names("verify.xi"):
        rho1, rho2 = sigma_pair_for_xi(xi, k, w)

    mesh = make_sphere_mesh(1.0, subdivision)
    grid = make_volume_grid((-1.6, 1.6), grid_n)
    potentials = [_build_potential({"potential_bumps": [{"amplitude": amp, "center": [0.0, 0.0, 0.0], "width": 0.45}],
                                    "cutoff": {"r_inner": 1.05, "r_outer": 1.40}}, grid) for amp in (0.35, -0.25)]
    with _names("verify.R"):
        for V in potentials:
            check_enclosing_radius(R, mesh, V)
    sys1, sys2 = (DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=alpha), k)
                  for V, alpha in zip(potentials, (1.0, 1.5)))

    # one solve per (medium, incident field) serves every report
    g = direction_grid(6, 12)
    psi1, psi1_rho2, radiating, *waves = sys1.solve_many(
        [Exponential(rho1), Exponential(rho2), plane_wave([0.0, 0.0, 1.0])] + [plane_wave(d) for d in g.normals])
    (psi2,) = sys2.solve_many([Exponential(rho2)])
    ff = FarFieldPattern(k=k, values=farfield_source(waves, g.normals), observations=g.normals,
                         obs_weights=g.weights, incidence=g.normals)
    reports = [
        *hn.green_pairing_check(psi1, [psi2, psi1_rho2], R),
        hn.fourier_identity_check(psi1, psi2, xi),
        hn.sommerfeld_check(radiating, k),
        hn.reciprocity_check(ff, rel_tol=0.01),
    ]

    bundle = _metadata(cfg, {"reports": [r.to_dict() for r in reports], "all_pass": all(r.passed for r in reports)})
    prefix = (cfg.get("output") or {}).get("prefix", "verify")
    _write_json(out / f"{prefix}_reports.json", bundle)
    if not quiet:
        for r in reports:
            print(f"  [{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.seconds:.1f}s)")
    return 0 if bundle["all_pass"] else 3


def _table(path: str):
    """The far-field table at ``path``; a ConfigError naming the file when it cannot be read as one."""
    try:
        return load_farfield_csv(path)
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path} is not a readable far-field table: {exc}") from exc


def cmd_compare(path_a: str, path_b: str, out: Path, quiet: bool,
                tol: float | None = None) -> int:
    if tol is not None and not 0 <= tol < np.inf:
        raise ConfigError(f"--tol must be a finite number >= 0, got {tol!r}")
    fa, fb = (_table(path) for path in (path_a, path_b))
    try:
        l2, mx = fa.rel_l2_distance(fb), fa.max_rel_distance(fb)
    except ValueError as exc:
        raise ConfigError(f"{path_a} and {path_b} cannot be compared: {exc}") from exc
    report = {
        "file_a": str(path_a),
        "file_b": str(path_b),
        "rel_l2_distance": l2,
        "max_rel_distance": mx,
        "tolerance": tol,
        "pass": (l2 <= tol) if tol is not None else None,
    }
    _write_json(out / "compare_report.json", report)
    if not quiet:
        print(f"compare: rel L2 {l2:.4e}, max {mx:.4e}")
    if tol is not None and l2 > tol:
        return 3
    return 0


_COMMANDS = {"forward": cmd_forward, "farfield": cmd_farfield, "acoustic": cmd_acoustic, "oracle": cmd_oracle,
             "verify": cmd_verify}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


@contextmanager
def _log_to_stderr(level: str):
    """The ``deltashell`` logger at ``level``, with a stderr handler, while the block runs."""
    logger = logging.getLogger("deltashell")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.setLevel(level)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def run_command(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="deltashell",
                                     description="delta-shell scattering engine")
    parser.add_argument("--config", type=str, help="JSON config path")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--log-level", default="WARNING",
                        help=f"level of the deltashell log on stderr: {', '.join(_LOG_LEVELS)} (default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name)
    pc = sub.add_parser("compare")
    pc.add_argument("file_a")
    pc.add_argument("file_b")
    pc.add_argument("--tol", type=float, default=None)

    args = parser.parse_args(argv)
    level = args.log_level.upper()
    if level not in _LOG_LEVELS:
        raise ConfigError(f"--log-level must be one of {', '.join(_LOG_LEVELS)}, got {args.log_level!r}")
    with _log_to_stderr(level):
        return _dispatch(args)


def _dispatch(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "compare":
        return cmd_compare(args.file_a, args.file_b, out, args.quiet, args.tol)

    if not args.config:
        raise ConfigError(f"command '{args.command}' needs --config")
    with open(args.config) as fh:
        cfg = json.load(fh)
    validate_config(cfg, args.command)
    return _COMMANDS[args.command](cfg, out, args.quiet)


def main(argv=None) -> int:
    try:
        code = run_command(argv)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # compute failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
