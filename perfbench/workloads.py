"""The three benchmark workloads, driven through deltashell's public API.

Each workload has three steps:

``setup(seed, workdir)``
    builds the inputs (meshes, grids, media, direction sets, the oracle
    reference).  The seed only draws rotations of the direction sets; the
    package receives the generated inputs and nothing else.
``iterate(inputs)``
    one timed unit of work, from the inputs to the result.
``check(inputs, result)``
    the correctness gate, outside the timed region; returns
    ``(passed, diagnostics)``.

All calls go through module attributes (``ds.DeltaSystem``, ``cli.run_command``)
so that the traced run sees them.
"""

from __future__ import annotations

import json
import os

import numpy as np

import deltashell as ds
from deltashell import cli

K = 2.0
ALPHA = 2.0
EZ = np.array([0.0, 0.0, 1.0])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A proper rotation matrix drawn from the seed's stream."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotated_grid(grid, rot: np.ndarray):
    """The direction grid turned by ``rot``; weights and antipodes carry over."""
    normals = grid.normals @ rot.T
    return ds.SphereGrid(radius=grid.radius, nodes=normals * grid.radius, weights=grid.weights,
                         normals=normals, n_theta=grid.n_theta, n_phi=grid.n_phi)


def weighted_rel_l2(values: np.ndarray, ref: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(weights @ np.abs(values - ref) ** 2) / np.sqrt(weights @ np.abs(ref) ** 2))


class SphereBEM:
    """Criterion 1 at 5120 panels: one plane wave on the unit sphere, no volume."""

    name = "sphere_bem"

    def setup(self, seed: int, workdir: str) -> dict:
        rot = random_rotation(np.random.default_rng([seed, 1]))
        mesh = ds.make_sphere_mesh(1.0, 4)
        obs = ds.make_sphere_grid(1.0, 12, 24)
        direction = rot @ EZ
        oracle = ds.solve_partial_waves(ds.RadialMedium(a=1.0, alpha=ALPHA), K, L=50)
        return {
            "delta": ds.DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, ALPHA)),
            "obs": obs,
            "direction": direction,
            "reference": ds.mie_farfield_values(oracle, direction, obs.normals),
        }

    def iterate(self, inp: dict):
        system = ds.DeltaSystem(None, inp["delta"], K)
        sol = system.solve(ds.plane_wave(inp["direction"]))
        return sol.residual, ds.farfield_source(sol, inp["obs"].normals)

    def check(self, inp: dict, result) -> tuple[bool, dict]:
        residual, ff = result
        err = weighted_rel_l2(ff, inp["reference"], inp["obs"].weights)
        diag = {"oracle_err": err, "residual": residual}
        return bool(err <= 0.02 and residual <= 1e-10), diag


class FarfieldTable:
    """The CLI's main product: a 200 x 200 far-field table written as CSV.

    The 10 x 20 direction grid (not 12 x 24) keeps an iteration near 20 s on
    two cores, so that every benchmark run of all three workloads fits the
    time budget, while ``farfield_source`` still has the largest share.  The CLI takes explicit directions for the incidences only, and the
    reciprocity check needs the incidence and observation sets to coincide,
    so the seed turns the shell mesh (written as OFF) instead of the
    direction sets.  The bump potential is radial, so the physics is the same
    for every seed while the discretization is not.
    """

    name = "farfield_table"
    N_THETA, N_PHI = 10, 20

    def setup(self, seed: int, workdir: str) -> dict:
        rot = random_rotation(np.random.default_rng([seed, 2]))
        sphere = ds.make_sphere_mesh(1.0, 3)
        mesh_path = os.path.join(workdir, "shell.off")
        ds.save_mesh(ds.SurfaceMesh.from_arrays(sphere.vertices @ rot.T, sphere.triangles), mesh_path)
        directions = {"n_theta": self.N_THETA, "n_phi": self.N_PHI}
        config = {
            "k": K,
            "mesh": {"kind": "off", "path": mesh_path},
            "alpha": ALPHA,
            "grid": {"bbox": 1.6, "n": 12},
            "potential_bumps": [{"amplitude": 0.35, "center": [0.0, 0.0, 0.0], "width": 0.45}],
            "cutoff": {"r_inner": 1.05, "r_outer": 1.40},
            "incidences": directions,
            "observations": directions,
            "kirchhoff": {"radius": 2.0},
            "output": {"prefix": "table"},
        }
        config_path = os.path.join(workdir, "farfield.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        return {"config": config_path, "out": workdir, "csv": os.path.join(workdir, "table.csv"),
                "directions": ds.direction_grid(self.N_THETA, self.N_PHI).normals}

    def iterate(self, inp: dict):
        return cli.run_command(["--config", inp["config"], "--out", inp["out"], "--quiet", "farfield"])

    def check(self, inp: dict, result) -> tuple[bool, dict]:
        ff = ds.load_farfield_csv(inp["csv"])
        n = len(inp["directions"])
        same_dirs = (ff.values.shape == (n, n)
                     and np.max(np.abs(ff.incidence - inp["directions"])) <= 1e-9
                     and np.max(np.abs(ff.observations - inp["directions"])) <= 1e-9)
        recip = ds.reciprocity_check(ff, rel_tol=0.01)
        gap = float(ff.meta["kirchhoff_vs_source_rel_l2"])
        diag = {
            "exit_code": result,
            "reciprocity": recip.metrics["max_rel_asymmetry"],
            "two_route_gap": gap,
            "csv_mb": os.path.getsize(inp["csv"]) / 1e6,
        }
        os.remove(inp["csv"])
        return bool(result == 0 and same_dirs and recip.passed and gap <= 1e-3), diag


def _medium_builder(xi: float):
    """Sphere shell of density jump ``xi`` at a refinement level (criterion 8's media)."""
    def make(level: int):
        mesh = ds.make_sphere_mesh(1.0, level)
        return ds.MediumSpec(gamma=mesh, shell_density=np.full(mesh.n_panels, xi),
                             v_bumps=(), cutoff=ds.RadialCutoff(1.4, 2.0))
    return make


class UniquenessDesk:
    """Criterion 8: shell 1 vs 1.5 at omega = 1 and 2, levels (2, 3)."""

    name = "uniqueness_desk"

    OMEGAS = (1.0, 2.0)

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 3])
        inc = rotated_grid(ds.direction_grid(3, 4), random_rotation(rng)).normals
        obs = rotated_grid(ds.direction_grid(4, 8), random_rotation(rng))
        return {
            "grid": ds.make_volume_grid((-2.2, 2.2), 10),
            "obs": obs,
            "inc": inc,
            "media": (_medium_builder(1.0), _medium_builder(1.5)),
        }

    def iterate(self, inp: dict):
        a, b = inp["media"]
        w1, w2 = self.OMEGAS
        return ds.uniqueness_experiment(a, b, w1, w2, inp["grid"], inp["obs"], inp["inc"], levels=(2, 3))

    def check(self, inp: dict, report) -> tuple[bool, dict]:
        m = report.metrics
        ratios = {f"w{w:g}": m[f"distance_w{w:g}"] / m[f"noise_floor_w{w:g}"] for w in self.OMEGAS}
        diag = {"separation": min(ratios.values()), "distance_over_floor": ratios}
        return bool(report.passed and not m["identical_media"]), diag


WORKLOADS = {w.name: w for w in (SphereBEM(), FarfieldTable(), UniquenessDesk())}
