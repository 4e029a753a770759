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
count produces byte-identical files (BLAS reductions may change with the
thread count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import acoustic as ac
from . import harness as hn
from . import mie
from .boundary import DeltaSpec, DeltaSystem, density_to_csv_rows, eval_total_field
from .farfield import (
    CONVENTIONS,
    FarFieldPattern,
    check_enclosing_radius,
    direction_grid,
    farfield_kirchhoff,
    farfield_source,
    load_farfield_csv,
    save_farfield_csv,
)
from .geometry import load_mesh, make_sphere_mesh, make_volume_grid
from .kernels import plane_wave, sigma_pair_for_xi
from .volume import PotentialSample

__all__ = ["main", "ConfigError", "run_command"]


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    "tolerances": {"compare_rel_l2"},
}
_TOP_KEYS = {
    "forward": {"k", "mesh", "alpha", "potential_bumps", "cutoff", "grid", "incident", "output"},
    "farfield": {"k", "mesh", "alpha", "potential_bumps", "cutoff", "grid",
                 "incidences", "observations", "kirchhoff", "output"},
    "acoustic": {"frequencies", "mesh", "medium", "grid", "incidences", "observations", "output"},
    "oracle": {"k", "oracle", "incidences", "observations", "output"},
    "verify": {"verify", "output"},
    "compare": {"tolerances"},
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
            for i, bump in enumerate(obj[key]):
                _check_keys(bump, _BUMP_KEYS, f"{path}{key}[{i}].")


def validate_config(cfg: dict, command: str) -> None:
    if command not in _TOP_KEYS:
        raise ConfigError(f"unknown command '{command}'")
    _check_keys(cfg, _TOP_KEYS[command], "")
    if "k" in _TOP_KEYS[command]:
        _positive(cfg.get("k"), "k")


def _count(spec: dict, key: str, name: str, default=None, *, minimum: int) -> int:
    """Integer ``spec[key]`` of at least ``minimum``; ConfigError naming the field otherwise."""
    val = spec.get(key, default)
    integral = isinstance(val, (int, float)) and not isinstance(val, bool) and float(val).is_integer()
    if not (integral and val >= minimum):
        raise ConfigError(f"config key '{name}' must be an integer >= {minimum}, got {val!r}")
    return int(val)


@contextmanager
def _names(name: str):
    """Re-raise a ValueError of the block as a ConfigError naming the field ``name``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"config key '{name}': {exc}") from exc


def _positive(val, name: str) -> float:
    """Finite positive number ``val``; ConfigError naming the field otherwise."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not 0 < val < np.inf:
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
    if isinstance(bbox, (int, float)):
        bbox = (-abs(bbox), abs(bbox))
    n = _count(spec, "n", "grid.n", minimum=2)
    try:
        return make_volume_grid(tuple(bbox), n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key 'grid.bbox' must be [lo, hi] with lo < hi, got {bbox!r} ({exc})")


def _build_bumps(entries, name: str):
    bumps = []
    for i, b in enumerate(entries or []):
        bumps.append(ac.GaussianBump(
            amplitude=float(b["amplitude"]),
            center=tuple(float(c) for c in b["center"]),
            width=_positive(b.get("width"), f"{name}[{i}].width"),
        ))
    return tuple(bumps)


def _build_cutoff(spec, name: str):
    if spec is None:
        return ac.RadialCutoff(2.0, 3.0)
    r_inner, r_outer = (_positive(spec.get(key), f"{name}.{key}") for key in ("r_inner", "r_outer"))
    if r_inner >= r_outer:
        raise ConfigError(f"config key '{name}' needs r_inner < r_outer, got {r_inner:g} >= {r_outer:g}")
    return ac.RadialCutoff(r_inner, r_outer)


def _build_potential(cfg: dict, grid):
    bumps = _build_bumps(cfg.get("potential_bumps"), "potential_bumps")
    cutoff = _build_cutoff(cfg.get("cutoff"), "cutoff")
    if not bumps or grid is None:
        return None
    x = grid.cell_center
    vals = np.zeros(len(x))
    for b in bumps:
        v, _, _ = b.fields(x)
        vals += v
    c_val, _, _ = cutoff.fields(x)
    return PotentialSample(grid=grid, values=vals * c_val)


def _panel_csv(spec: dict, mesh, name: str) -> np.ndarray:
    """One value per panel from the CSV file ``spec['csv']``."""
    vals = np.loadtxt(spec["csv"], delimiter=",", ndmin=1).ravel()
    if vals.size != mesh.n_panels:
        raise ConfigError(f"'{name}.csv' holds {vals.size} values; the mesh has {mesh.n_panels} panels")
    return vals


def _alpha_array(cfg: dict, mesh):
    spec = cfg.get("alpha", 0.0)
    if isinstance(spec, (int, float)):
        return np.full(mesh.n_panels, float(spec))
    if isinstance(spec, dict) and "csv" in spec:
        return _panel_csv(spec, mesh, "alpha")
    raise ConfigError("alpha must be a number or {'csv': path}")


def _direction_set(spec, name: str, default_nt=16, default_np=32):
    if spec is None:
        spec = {}
    if "directions" in spec:
        dirs = np.array(spec["directions"], dtype=float, ndmin=2)
        if dirs.ndim != 2 or dirs.shape[1] != 3:
            raise ConfigError(f"'{name}.directions' must be a list of 3-vectors")
        norms = np.linalg.norm(dirs, axis=1)
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
        if len(bad):
            raise ConfigError(f"'{name}.directions[{bad[0]}]' must be a finite nonzero vector")
        dirs /= norms[:, None]
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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_forward(cfg: dict, out: Path, quiet: bool) -> int:
    mesh = _build_mesh(cfg)
    grid = _build_grid(cfg)
    k = float(cfg["k"])
    delta = DeltaSpec(mesh=mesh, alpha=_alpha_array(cfg, mesh))
    V = _build_potential(cfg, grid)
    inc_spec = cfg.get("incident", {"kind": "plane", "direction": [0.0, 0.0, 1.0]})
    if inc_spec.get("kind", "plane") != "plane":
        raise ConfigError("forward supports plane-wave incidence")
    inc = plane_wave(np.asarray(inc_spec["direction"], dtype=float))

    sol = DeltaSystem(V, delta, k).solve(inc)

    prefix = (cfg.get("output") or {}).get("prefix", "forward")
    dens_path = out / f"{prefix}_density.csv"
    with open(dens_path, "w") as fh:
        fh.write("panel,cx,cy,cz,re_eta,im_eta,alpha\n")
        for row in density_to_csv_rows(sol):
            fh.write(f"{row[0]}," + ",".join(_fmt(v) for v in row[1:]) + "\n")

    field_path = out / f"{prefix}_field.csv"
    if grid is not None:
        if V is not None:
            values = sol.volume_field.values
        else:
            values = np.asarray(eval_total_field(sol, grid.cell_center, near_warning=False))
        with open(field_path, "w") as fh:
            fh.write("cell,x,y,z,re_psi,im_psi\n")
            for i, (c, v) in enumerate(zip(grid.cell_center, values)):
                fh.write(f"{i},{_fmt(c[0])},{_fmt(c[1])},{_fmt(c[2])},{_fmt(v.real)},{_fmt(v.imag)}\n")

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
    delta = DeltaSpec(mesh=mesh, alpha=_alpha_array(cfg, mesh))
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
    mesh = _build_mesh(cfg)
    grid = _build_grid(cfg)
    if grid is None:
        raise ConfigError("acoustic runs need a 'grid' section")
    med_cfg = cfg.get("medium", {})
    shell = med_cfg.get("shell_density", 0.0)
    if isinstance(shell, dict):
        shell = _panel_csv(shell, mesh, "medium.shell_density")
    cutoff = _build_cutoff(med_cfg.get("cutoff"), "medium.cutoff")
    if cutoff.r_inner <= mesh.bounding_radius:
        raise ConfigError(f"config key 'medium.cutoff.r_inner' must exceed the mesh radius "
                          f"{mesh.bounding_radius:.3g}, got {cutoff.r_inner:g}")
    medium = ac.MediumSpec(
        gamma=mesh,
        shell_density=np.asarray(shell, dtype=float) if not np.isscalar(shell) else float(shell),
        rho_bumps=_build_bumps(med_cfg.get("rho_bumps"), "medium.rho_bumps"),
        v_bumps=_build_bumps(med_cfg.get("v_bumps"), "medium.v_bumps"),
        cutoff=cutoff,
    )
    with _names("grid"):
        ac.check_medium_grid(medium, grid)
    inc_dirs, _, _ = _direction_set(cfg.get("incidences", _SINGLE_INCIDENCE), "incidences")
    obs_dirs, obs_w, obs_grid = _direction_set(cfg.get("observations"), "observations")
    if obs_grid is None:
        raise ConfigError("acoustic observations must be a (n_theta, n_phi) grid")

    prefix = (cfg.get("output") or {}).get("prefix", "acoustic")
    patterns = ac.acoustic_farfield(medium, omegas, inc_dirs, obs_grid, grid)
    for omega, ff in zip(frequencies, patterns):
        save_farfield_csv(ff, out / f"{prefix}_w{omega:g}.csv", _metadata(cfg, {"omega": omega}))
        if not quiet:
            print(f"acoustic: wrote {prefix}_w{omega:g}.csv")
    return 0


def cmd_oracle(cfg: dict, out: Path, quiet: bool) -> int:
    spec = cfg.get("oracle", {})
    k = float(cfg["k"])
    medium = mie.RadialMedium(
        a=float(spec.get("a", 1.0)),
        alpha=float(spec.get("alpha", 0.0)),
        shells=tuple((float(r), float(v)) for r, v in spec.get("shells", [])),
    )
    psol = mie.solve_partial_waves(medium, k, spec.get("L"))
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
    w = spec.get("w", 0.5)
    if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0 <= w < np.inf:
        raise ConfigError(f"config key 'verify.w' must be a finite number >= 0, got {w!r}")
    w = float(w)
    xi = np.asarray(spec.get("xi", [1.0, 0.0, 0.0]), dtype=float)
    R = _positive(spec.get("R", 1.8), "verify.R")

    mesh = make_sphere_mesh(1.0, subdivision)
    grid = make_volume_grid((-1.6, 1.6), grid_n)

    def bump_potential(amp):
        x = grid.cell_center
        b = ac.GaussianBump(amplitude=amp, center=(0.0, 0.0, 0.0), width=0.45)
        cut = ac.RadialCutoff(1.05, 1.40)
        v, _, _ = b.fields(x)
        c, _, _ = cut.fields(x)
        return PotentialSample(grid=grid, values=v * c)

    d1 = ac.SchrodingerData(V=bump_potential(0.35), delta=DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.0)), omega=k)
    d2 = ac.SchrodingerData(V=bump_potential(-0.25), delta=DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.5)), omega=k)
    with _names("verify.R"):
        for d in (d1, d2):
            check_enclosing_radius(R, d.delta.mesh, d.V)
    rho1, rho2 = sigma_pair_for_xi(xi, k, w)

    reports = [
        hn.green_pairing_check(d1, d2, rho1, rho2, R),
        hn.green_pairing_check(d1, d1, rho1, rho2, R),
        hn.fourier_identity_check(d1, d2, xi, w, k),
    ]

    sys1 = DeltaSystem(d1.V, d1.delta, k)
    sol = sys1.solve(plane_wave(np.array([0.0, 0.0, 1.0])))
    reports.append(hn.sommerfeld_check(sol, k))

    g = direction_grid(6, 12)
    values = farfield_source(sys1.solve_many([plane_wave(d) for d in g.normals]), g.normals)
    ff = FarFieldPattern(k=k, values=values, observations=g.normals,
                         obs_weights=g.weights, incidence=g.normals)
    reports.append(hn.reciprocity_check(ff, rel_tol=0.01))

    bundle = {
        "config_digest": config_digest(cfg),
        "conventions": CONVENTIONS,
        "reports": [r.to_dict() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    prefix = (cfg.get("output") or {}).get("prefix", "verify")
    _write_json(out / f"{prefix}_reports.json", bundle)
    if not quiet:
        for r in reports:
            print(f"  [{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.seconds:.1f}s)")
    return 0 if bundle["all_pass"] else 3


def cmd_compare(path_a: str, path_b: str, out: Path, quiet: bool,
                tol: float | None = None) -> int:
    fa = load_farfield_csv(path_a)
    fb = load_farfield_csv(path_b)
    l2 = fa.rel_l2_distance(fb)
    mx = fa.max_rel_distance(fb)
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


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_command(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="deltashell",
                                     description="delta-shell scattering engine")
    parser.add_argument("--config", type=str, help="JSON config path")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("forward", "farfield", "acoustic", "oracle", "verify"):
        sub.add_parser(name)
    pc = sub.add_parser("compare")
    pc.add_argument("file_a")
    pc.add_argument("file_b")
    pc.add_argument("--tol", type=float, default=None)

    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "compare":
        return cmd_compare(args.file_a, args.file_b, out, args.quiet, args.tol)

    if not args.config:
        raise ConfigError(f"command '{args.command}' needs --config")
    with open(args.config) as fh:
        cfg = json.load(fh)
    validate_config(cfg, args.command)
    handler = {
        "forward": cmd_forward,
        "farfield": cmd_farfield,
        "acoustic": cmd_acoustic,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
    }[args.command]
    return handler(cfg, out, args.quiet)


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
