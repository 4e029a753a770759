"""Command-line front door: configs, outputs, exit codes, determinism."""

import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deltashell
from deltashell import acoustic, boundary, cli, harness
from deltashell.boundary import DeltaSolution, DeltaSystem
from deltashell.cli import main
from deltashell.farfield import load_farfield_csv
from deltashell.geometry import SurfaceMesh, make_sphere_mesh, save_mesh

from conftest import cube_mesh


def no_solve(*args):
    raise AssertionError("the config reached a solve")


BAD_XI = ([1.0, 0.0], [0.0, 0.0, 0.0, 1.0], None, [1.0, 0.0, float("nan")], [10.0, 0.0, 0.0])


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args, threads):
    """The CLI in a fresh process, with numpy's and scipy's BLAS pools at ``threads`` threads."""
    src = str(Path(deltashell.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "deltashell.cli", *args], env=env, check=True)


FORWARD_TRIVIAL = {
    "k": 1.5,
    "mesh": {"kind": "sphere", "radius": 1.0, "subdivisions": 1},
    "alpha": 0.0,
    "grid": {"bbox": [-1.5, 1.5], "n": 4},
    "incident": {"kind": "plane", "direction": [0.0, 0.0, 1.0]},
    "output": {"prefix": "run"},
}


ACOUSTIC = {
    "frequencies": [1.0, 2.0],
    "mesh": {"kind": "sphere", "subdivisions": 1},
    "medium": {"shell_density": 1.0, "cutoff": {"r_inner": 1.4, "r_outer": 2.0}},
    "grid": {"bbox": [-2.4, 2.4], "n": 8},   # boundary cell centres at 2.14 or more, outside the cutoff
    "incidences": {"directions": [[0.0, 0.0, 1.0]]},
    "observations": {"n_theta": 4, "n_phi": 8},
    "output": {"prefix": "ac"},
}


ORACLE = {
    "k": 2.0,
    "oracle": {"a": 1.0, "alpha": 2.0},
    "incidences": {"directions": [[0.0, 0.0, 1.0]]},
    "observations": {"n_theta": 4, "n_phi": 8},
    "output": {"prefix": "mie"},
}


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = dict(FORWARD_TRIVIAL)
        cfg["wavenumber"] = 2.0
        path = write_config(tmp_path, "bad.json", cfg)
        code = main(["--config", path, "--out", str(tmp_path), "forward"])
        assert code == 2
        assert "wavenumber" in capsys.readouterr().err

    def test_nested_unknown_key_rejected(self, tmp_path, capsys):
        cfg = dict(FORWARD_TRIVIAL)
        cfg["mesh"] = {"kind": "sphere", "radius": 1.0, "radius_inner": 2.0}
        path = write_config(tmp_path, "bad2.json", cfg)
        code = main(["--config", path, "--out", str(tmp_path), "forward"])
        assert code == 2
        assert "mesh.radius_inner" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "--out", str(tmp_path), "forward"]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["--out", str(tmp_path), "forward"]) == 2

    def test_missing_wavenumber(self, tmp_path, capsys):
        cfg = {key: val for key, val in FORWARD_TRIVIAL.items() if key != "k"}
        path = write_config(tmp_path, "nok.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "forward"]) == 2
        assert "'k'" in capsys.readouterr().err

    def test_zero_direction(self, tmp_path, capsys):
        cfg = dict(TestFarfieldCommand.CFG)
        cfg["incidences"] = {"directions": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]}
        path = write_config(tmp_path, "zero.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "farfield"]) == 2
        assert "incidences.directions[1]" in capsys.readouterr().err

    def test_alpha_csv_wrong_length(self, tmp_path, capsys):
        csv = tmp_path / "alpha.csv"
        csv.write_text("\n".join(["1.0"] * 79) + "\n")  # the mesh has 80 panels
        cfg = dict(FORWARD_TRIVIAL)
        cfg["alpha"] = {"csv": str(csv)}
        path = write_config(tmp_path, "alpha.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "forward"]) == 2
        err = capsys.readouterr().err
        assert "alpha.csv" in err and "79" in err

    BAD_FIELDS = {
        # a grid that carries a potential is capped at 32 (32^3 = MAX_GRID_CELLS), a sphere at 4
        # subdivisions (20 * 4^4 panels <= MAX_PANELS < 20 * 4^5)
        "grid.n": ("forward", {"grid": {"bbox": [-1.5, 1.5], "n": 0}},
                   {"grid": {"bbox": [-1.5, 1.5], "n": 33},
                    "potential_bumps": [{"amplitude": 0.3, "center": [0.0, 0.0, 0.0], "width": 0.45}]}),
        "mesh.subdivisions": ("forward", *({"mesh": {"kind": "sphere", "radius": 1.0, "subdivisions": s}}
                                           for s in (-1, 5))),
        "potential_bumps[0].width": ("forward", {"potential_bumps": [
            {"amplitude": 0.3, "center": [0.0, 0.0, 0.0], "width": 0}]}),
        "kirchhoff.n_theta": ("farfield", {"kirchhoff": {"radius": 2.0, "n_theta": 0}}),
        "observations.n_theta": ("farfield", {"observations": {"n_theta": 0, "n_phi": 12}}),
        "mesh.radius": ("forward", {"mesh": {"kind": "sphere", "radius": 0, "subdivisions": 1}}),
        "cutoff": ("forward", {"cutoff": {"r_inner": 1.4, "r_outer": 1.4}}),
        "medium.cutoff": ("acoustic", {"medium": {"shell_density": 1.0,
                                                  "cutoff": {"r_inner": 2.0, "r_outer": 1.4}}}),
        "frequencies[0]": ("acoustic", {"frequencies": [-1.0]}),
        "verify.subdivision": ("verify", {"verify": {"subdivision": -1}}, {"verify": {"subdivision": 5}}),
        "verify.grid_n": ("verify", {"verify": {"grid_n": 0}}, {"verify": {"grid_n": 33}}),
        # every bound is a finite JSON number: true is no bound, and a NaN or an infinite
        # bound made a grid of non-finite centres or spacing
        "grid.bbox": ("forward", *({"grid": {"bbox": bbox, "n": 4}} for bbox in (
            [1.5, -1.5], True, [float("nan"), 1.6], [-1.6, float("inf")], float("nan"), [True, 1.6],
            [[-1.6, -1.6, -1.6], [1.6, float("inf"), 1.6]], None))),
        # 0.9 clears the centroids of the 20-panel sphere (0.79) but not its vertices
        "kirchhoff.radius": ("farfield", {"kirchhoff": {"radius": 0}},
                             {"mesh": {"kind": "sphere", "subdivisions": 0},
                              "kirchhoff": {"radius": 0.9}}),
        "medium.cutoff.r_inner": ("acoustic", {"medium": {"shell_density": 1.0,
                                                          "cutoff": {"r_inner": 0.5, "r_outer": 2.0}}}),
        "verify.k": ("verify", {"verify": {"k": -1.0}}),
        "verify.w": ("verify", {"verify": {"w": -0.5}}, {"verify": {"w": "0.5"}}),
        # B_R must enclose both media: 1.2 cuts the support cells, 1.5 their half-diagonals
        "verify.R": ("verify", {"verify": {"R": 0}}, {"verify": {"R": 1.5}}, {"verify": {"R": 1.2}}),
        # not a finite 3-vector, or too large for w = 0.5 at k = 1 (|xi|^2/4 > w^2 + k^2)
        "verify.xi": ("verify", *({"verify": {"xi": xi}} for xi in BAD_XI)),
        # a bump needs a finite amplitude and a finite 3-vector centre, in every bump list;
        # numbers are JSON numbers, not strings
        "potential_bumps[0].amplitude": ("forward", *({"potential_bumps": [dict(bump, width=0.45)]} for bump in (
            {"amplitude": "x", "center": [0.0, 0.0, 0.0]}, {"center": [0.0, 0.0, 0.0]},
            {"amplitude": float("nan"), "center": [0.0, 0.0, 0.0]},
            {"amplitude": "0.3", "center": [0.0, 0.0, 0.0]}))),
        "potential_bumps[0].center": ("forward", *({"potential_bumps": [{"amplitude": 0.3, "center": c, "width": 0.45}]}
                                                   for c in ([0.0, 0.0], None, "xyz", [0.0, float("inf"), 0.0],
                                                             ["0", "0", "0"]))),
        "medium.v_bumps[1].center": ("acoustic", {"medium": dict(ACOUSTIC["medium"], v_bumps=[
            {"amplitude": 0.3, "center": [0.0, 0.0, 0.0], "width": 0.45},
            {"amplitude": 0.3, "center": [0.0, 0.0], "width": 0.45}])}),
        "medium.rho_bumps[0].amplitude": ("acoustic", {"medium": dict(ACOUSTIC["medium"], rho_bumps=[
            {"amplitude": [0.3], "center": [0.0, 0.0, 0.0], "width": 0.45}])}),
        "alpha": ("forward", {"alpha": float("nan")}, {"alpha": float("inf")}, {"alpha": "2.0"}),
        "medium.shell_density": ("acoustic", {"medium": dict(ACOUSTIC["medium"], shell_density="x")},
                                 {"medium": dict(ACOUSTIC["medium"], shell_density="1.0")}),
        "oracle.a": ("oracle", {"oracle": {"a": -1}}),
        "oracle.alpha": ("oracle", {"oracle": {"alpha": "x"}}, {"oracle": {"alpha": None}},
                         {"oracle": {"alpha": float("nan")}}, {"oracle": {"alpha": "1.5"}}),
        "oracle.shells": ("oracle", {"oracle": {"shells": [[0.5]]}}, {"oracle": {"shells": [0.5]}},
                          {"oracle": {"shells": [[0.5, 0.2], [0.4, 0.1]]}},
                          {"oracle": {"shells": [[0.5, float("inf")]]}}, {"oracle": {"shells": [["0.5", "0.3"]]}},
                          {"oracle": {"shells": 0.5}}),
        # the partial-wave solve clamps L to [4, LMAX_HARD]; the CLI rejects what it would clamp
        "oracle.L": ("oracle", {"oracle": {"L": -3}}, {"oracle": {"L": 3}}, {"oracle": {"L": 201}},
                     {"oracle": {"L": 4.5}}),
        # the forward incidence is normalised and checked as the farfield incidences are
        "incident.direction": ("forward", *({"incident": {"kind": "plane", "direction": d}} for d in (
            [0.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, float("nan"), 1.0],
            [float("inf"), 0.0, 0.0], None, "z", [[0.0, 0.0, 1.0]]))),
        # a bump section is a list of bumps
        "potential_bumps": ("forward", {"potential_bumps": 5}, {"potential_bumps": {"amplitude": 0.3}},
                            {"potential_bumps": "bump"}),
        "medium.rho_bumps": ("acoustic", {"medium": dict(ACOUSTIC["medium"], rho_bumps=5)}),
        "medium.v_bumps": ("acoustic", {"medium": dict(ACOUSTIC["medium"], v_bumps={"width": 0.4})}),
        # a medium whose sampled density is not positive on the grid
        "medium": ("acoustic", {"medium": dict(ACOUSTIC["medium"], shell_density=-10)}),
    }

    @pytest.mark.parametrize("field", list(BAD_FIELDS))
    def test_bad_size_or_width_names_field(self, tmp_path, capsys, field):
        command, *sections = self.BAD_FIELDS[field]
        for section in sections:
            cfg = dict({"forward": FORWARD_TRIVIAL, "farfield": TestFarfieldCommand.CFG,
                        "acoustic": ACOUSTIC, "oracle": ORACLE, "verify": {}}[command])
            cfg.update(section)
            path = write_config(tmp_path, "bad.json", cfg)
            assert main(["--config", path, "--out", str(tmp_path), command]) == 2, section
            assert f"'{field}'" in capsys.readouterr().err

    def test_sizes_past_the_dense_caps_refused_before_the_build(self, tmp_path, capsys, monkeypatch):
        # the mesh or grid the solve could not take is never made; a grid that only evaluates
        # the field is not capped
        bump = {"amplitude": 0.3, "center": [0.0, 0.0, 0.0], "width": 0.45}
        cases = [("forward", {"mesh": {"kind": "sphere", "subdivisions": 5}}, "mesh.subdivisions", "make_sphere_mesh"),
                 ("forward", {"grid": {"bbox": 1.6, "n": 33}, "potential_bumps": [bump]}, "grid.n", "make_volume_grid"),
                 ("acoustic", {"grid": {"bbox": 2.4, "n": 33}}, "grid.n", "make_volume_grid"),
                 ("verify", {"verify": {"subdivision": 5}}, "verify.subdivision", "make_sphere_mesh"),
                 ("verify", {"verify": {"grid_n": 33}}, "verify.grid_n", "make_volume_grid")]
        for command, section, field, build in cases:
            cfg = dict({"forward": FORWARD_TRIVIAL, "acoustic": ACOUSTIC, "verify": {}}[command], **section)
            with monkeypatch.context() as patch:
                patch.setattr(cli, build, no_solve)
                assert main(["--config", write_config(tmp_path, "big.json", cfg), "--out", str(tmp_path), command]) == 2
            assert f"'{field}'" in capsys.readouterr().err
        assert cli._build_grid({"grid": {"bbox": 1.6, "n": 33}}).n_cells == 33**3 > boundary.MAX_GRID_CELLS

    def test_off_mesh_past_the_panel_cap_refused_from_its_counts(self, tmp_path, capsys):
        # the counts line claims MAX_PANELS + 1 faces and no face follows: the cap is read from
        # the counts, before the file is found truncated or any face is parsed
        path = tmp_path / "big.off"
        path.write_text(f"OFF\n3 {boundary.MAX_PANELS + 1} 0\n0 0 0\n1 0 0\n0 1 0\n")
        cfg = dict(FORWARD_TRIVIAL, mesh={"kind": "off", "path": str(path)})
        assert main(["--config", write_config(tmp_path, "big.json", cfg), "--out", str(tmp_path), "forward"]) == 2
        err = capsys.readouterr().err
        assert "'mesh.path'" in err and f"{boundary.MAX_PANELS + 1} faces" in err
        assert f"cap is {boundary.MAX_PANELS}" in err

    def test_verify_xi_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DeltaSystem", no_solve)
        for xi in BAD_XI:
            path = write_config(tmp_path, "xi.json", {"verify": {"xi": xi}})
            assert main(["--config", path, "--out", str(tmp_path), "verify"]) == 2, xi
            assert "'verify.xi'" in capsys.readouterr().err

    def test_verify_radius_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DeltaSystem", no_solve)
        path = write_config(tmp_path, "r.json", {"verify": {"R": 1.5}})
        assert main(["--config", path, "--out", str(tmp_path), "verify"]) == 2
        err = capsys.readouterr().err
        assert "'verify.R'" in err and "does not enclose" in err

    def test_cell_centres_on_gamma_name_grid(self, tmp_path, capsys, monkeypatch):
        # cube faces at +-0.8 on a grid of spacing 0.4: 98 cell centres lie on Gamma
        mesh_path = tmp_path / "cube.off"
        save_mesh(cube_mesh(1.6), mesh_path)
        cfg = dict(ACOUSTIC, mesh={"kind": "off", "path": str(mesh_path)},
                   medium={"shell_density": 1.0, "cutoff": {"r_inner": 1.5, "r_outer": 2.0}},
                   grid={"bbox": [-2.2, 2.2], "n": 11})
        path = write_config(tmp_path, "cube.json", cfg)
        monkeypatch.setattr(acoustic, "DeltaSystem", no_solve)
        assert main(["--config", path, "--out", str(tmp_path), "acoustic"]) == 2
        err = capsys.readouterr().err
        assert "'grid'" in err and "98 grid cell centres" in err


    def test_kirchhoff_radius_must_clear_the_potential_support(self, tmp_path, capsys, monkeypatch):
        # radius 1.5 clears the unit-sphere mesh but not the support cells of a bump cut
        # off at r_outer = 1.4 on an 8^3 grid (cell centres plus half-diagonals reach 1.66)
        cfg = dict(TestFarfieldCommand.CFG, grid={"bbox": [-1.6, 1.6], "n": 8},
                   potential_bumps=[{"amplitude": 0.3, "center": [0.0, 0.0, 0.0], "width": 0.45}],
                   cutoff={"r_inner": 1.05, "r_outer": 1.4},
                   kirchhoff={"radius": 1.5, "n_theta": 12, "n_phi": 24})
        path = write_config(tmp_path, "support.json", cfg)
        monkeypatch.setattr(cli, "DeltaSystem", no_solve)
        assert main(["--config", path, "--out", str(tmp_path), "farfield"]) == 2
        err = capsys.readouterr().err
        assert "'kirchhoff.radius'" in err and "enclose" in err

    def test_inward_wound_mesh_names_path(self, tmp_path, capsys):
        sphere = make_sphere_mesh(1.0, 1)
        mesh_path = tmp_path / "inward.off"
        save_mesh(SurfaceMesh.from_arrays(sphere.vertices, sphere.triangles[:, ::-1]), mesh_path)
        cfg = dict(FORWARD_TRIVIAL, mesh={"kind": "off", "path": str(mesh_path)})
        path = write_config(tmp_path, "inward.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "forward"]) == 2
        err = capsys.readouterr().err
        assert "'mesh.path'" in err and "inward winding" in err

    def test_open_mesh_names_path(self, tmp_path, capsys):
        sphere = make_sphere_mesh(1.0, 1)
        mesh_path = tmp_path / "open.off"
        save_mesh(SurfaceMesh.from_arrays(sphere.vertices, sphere.triangles[:-1]), mesh_path)
        cfg = dict(FORWARD_TRIVIAL, mesh={"kind": "off", "path": str(mesh_path)})
        path = write_config(tmp_path, "open.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "forward"]) == 2
        err = capsys.readouterr().err
        assert "'mesh.path'" in err and "3 open edges" in err


class TestForward:
    def test_trivial_run_writes_incident_field(self, tmp_path):
        path = write_config(tmp_path, "cfg.json", FORWARD_TRIVIAL)
        assert main(["--config", path, "--out", str(tmp_path), "--quiet", "forward"]) == 0

        dens = np.loadtxt(tmp_path / "run_density.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(dens[:, 4:6])) == 0.0  # eta = 0 at alpha = 0

        field = np.loadtxt(tmp_path / "run_field.csv", delimiter=",", skiprows=1)
        psi = field[:, 4] + 1j * field[:, 5]
        expected = np.exp(1.5j * field[:, 3])  # e^{ikz}
        assert np.max(np.abs(psi - expected)) < 1e-12

        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert "config_digest" in meta and "conventions" in meta

    def test_incident_direction_is_normalised(self, tmp_path):
        # [0, 0, 2] is the direction of [0, 0, 1], as in the farfield incidences
        outs = []
        for name, d in (("unit", [0.0, 0.0, 1.0]), ("long", [0.0, 0.0, 2.0])):
            cfg = dict(FORWARD_TRIVIAL, alpha=1.0, incident={"kind": "plane", "direction": d})
            path = write_config(tmp_path, f"{name}.json", cfg)
            assert main(["--config", path, "--out", str(tmp_path / name), "--quiet", "forward"]) == 0
            outs.append(tmp_path / name)
        for csv in ("run_density.csv", "run_field.csv"):
            assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()


DENSITY_CSV = """\
panel,cx,cy,cz,re_eta,im_eta,alpha
0,0.10000000000000001,-0,1e+308,-0,1e-300,1.5
1,0.33333333333333331,4.9406564584124654e-324,-2.5,2,-0.14285714285714285,-0
"""
FIELD_CSV = """\
cell,x,y,z,re_psi,im_psi
0,0.33333333333333331,4.9406564584124654e-324,-2.5,2,-0.14285714285714285
1,0.10000000000000001,-0,1e+308,-0,1e-300
"""


class TestForwardCsv:
    # fixed arrays with signed zeros, a subnormal, 1e308 and repeating decimals; the
    # literal texts are what the forward writer has always produced for them
    POINTS = np.array([[0.1, -0.0, 1e308], [1 / 3, 5e-324, -2.5]])
    VALUES = np.array([complex(-0.0, 1e-300), complex(2.0, -1 / 7)])

    def test_density_and_field_text(self, tmp_path):
        cli._write_rows(tmp_path / "d.csv", "panel,cx,cy,cz,re_eta,im_eta,alpha",
                        (*self.POINTS.T, self.VALUES.real, self.VALUES.imag, np.array([1.5, -0.0])))
        cli._write_rows(tmp_path / "f.csv", "cell,x,y,z,re_psi,im_psi",
                        (*self.POINTS[::-1].T, self.VALUES[::-1].real, self.VALUES[::-1].imag))
        assert (tmp_path / "d.csv").read_text() == DENSITY_CSV
        assert (tmp_path / "f.csv").read_text() == FIELD_CSV


class TestLogLevel:
    def test_debug_writes_the_solver_log_and_the_same_files(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", dict(FORWARD_TRIVIAL, alpha=1.0))
        debug, default = tmp_path / "debug", tmp_path / "default"
        assert main(["--config", path, "--out", str(debug), "--log-level", "DEBUG", "forward"]) == 0
        out_debug, err = capsys.readouterr()
        assert "delta-shell LU:" in err and "delta-shell solve:" in err
        assert main(["--config", path, "--out", str(default), "forward"]) == 0
        out_default, err = capsys.readouterr()
        assert err == "" and out_debug == out_default
        for name in ("run_density.csv", "run_field.csv", "run_metadata.json"):
            assert (debug / name).read_bytes() == (default / name).read_bytes()

    def test_alpha_on_sigma_makes_sigma_the_panel_unknowns(self, tmp_path, capsys):
        # alpha from a CSV, 0 on the panels with z <= 0: the LU has n = cells + |Sigma|, and eta
        # is exactly 0 off Sigma
        mesh = make_sphere_mesh(1.0, 1)
        alpha = np.where(mesh.panel_centroid[:, 2] > 0, 2.0, 0.0)
        csv = tmp_path / "alpha.csv"
        np.savetxt(csv, alpha)
        cfg = dict(FORWARD_TRIVIAL, alpha={"csv": str(csv)}, grid={"bbox": [-2.0, 2.0], "n": 10},
                   potential_bumps=[{"amplitude": 0.3, "center": [0.0, 0.0, 0.0], "width": 0.45}],
                   cutoff={"r_inner": 1.2, "r_outer": 1.5})
        path = write_config(tmp_path, "sigma.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "--log-level", "DEBUG", "--quiet", "forward"]) == 0
        (n,) = re.findall(r"delta-shell LU: \w+, n = (\d+),", capsys.readouterr().err)
        cells = len(cli._build_potential(cfg, cli._build_grid(cfg)).support())
        assert cells > 0 and int(n) == cells + np.count_nonzero(alpha) < cells + mesh.n_panels
        dens = np.loadtxt(tmp_path / "run_density.csv", delimiter=",", skiprows=1)
        assert np.array_equal(dens[:, 6], alpha)
        assert not np.any(dens[alpha == 0, 4:6]) and np.all(np.any(dens[alpha != 0, 4:6], axis=1))

    def test_acoustic_logs_one_fill_per_frequency(self, tmp_path, capsys):
        path = write_config(tmp_path, "ac.json", dict(ACOUSTIC, grid={"bbox": [-2.6, 2.6], "n": 7}))
        assert main(["--config", path, "--out", str(tmp_path), "--log-level", "DEBUG", "--quiet", "acoustic"]) == 0
        kernels = [line for line in capsys.readouterr().err.splitlines() if "delta-shell kernel:" in line]
        assert len(kernels) == 2
        for line, k in zip(kernels, ("1", "2")):
            assert re.search(rf"delta-shell kernel: filled, (\d+) x \1, k = {k}, \d+\.\d{{3}} s$", line)

    def test_a_callers_handler_gets_the_solver_records(self, tmp_path, capsys, caplog):
        # --log-level filters only the CLI's stderr handler: the logger stays at the caller's DEBUG
        caplog.set_level(logging.DEBUG, logger="deltashell")
        path = write_config(tmp_path, "ff.json", TestFarfieldCommand.CFG)
        assert main(["--config", path, "--out", str(tmp_path), "--quiet", "farfield"]) == 0
        stages = {r.getMessage().split(":")[0] for r in caplog.records if r.name == "deltashell"}
        assert {"delta-shell kernel", "delta-shell LU", "delta-shell solve", "delta-shell far field"} <= stages
        assert capsys.readouterr().err == ""
        assert logging.getLogger("deltashell").level == logging.DEBUG

    def test_unknown_level_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", FORWARD_TRIVIAL)
        assert main(["--config", path, "--out", str(tmp_path), "--log-level", "LOUD", "forward"]) == 2
        assert "--log-level" in capsys.readouterr().err


class TestFarfieldCommand:
    CFG = {
        "k": 2.0,
        "mesh": {"kind": "sphere", "subdivisions": 2},
        "alpha": 2.0,
        "incidences": {"directions": [[0.0, 0.0, 1.0]]},
        "observations": {"n_theta": 6, "n_phi": 12},
        "kirchhoff": {"radius": 2.0, "n_theta": 12, "n_phi": 24},
        "output": {"prefix": "ff"},
    }

    def test_writes_deterministic_csv(self, tmp_path):
        path = write_config(tmp_path, "ff.json", self.CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", path, "--out", str(out1), "--quiet", "farfield"]) == 0
        assert main(["--config", path, "--out", str(out2), "--quiet", "farfield"]) == 0
        assert (out1 / "ff.csv").read_bytes() == (out2 / "ff.csv").read_bytes()
        ff = load_farfield_csv(out1 / "ff.csv")
        assert ff.values.shape == (1, 72)
        assert ff.meta["kirchhoff_vs_source_rel_l2"] < 1e-3

    @pytest.fixture(scope="class")
    def thread_runs(self, tmp_path_factory):
        """``farfield`` twice at 1 BLAS thread and twice at 2, each in a fresh process: the bytes."""
        tmp_path = tmp_path_factory.mktemp("blas_threads")
        path = write_config(tmp_path, "ff.json", self.CFG)
        runs = {}
        for threads in ("1", "2"):
            outs = [tmp_path / f"{threads}a", tmp_path / f"{threads}b"]
            for out in outs:
                run_cli(["--config", path, "--out", str(out), "--quiet", "farfield"], threads)
            runs[threads] = [(out / "ff.csv").read_bytes() for out in outs]
        return tmp_path, runs

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_byte_identical_at_fixed_blas_threads(self, thread_runs, threads):
        # the determinism claim: same config and same BLAS thread count give the same bytes
        first, second = thread_runs[1][threads]
        assert first == second

    def test_blas_thread_count_moves_only_the_last_bits(self, thread_runs):
        # 1 and 2 threads factor in another order (getrf), which moved the table by 2.9e-16 relative
        tmp_path, _ = thread_runs
        one, two = (load_farfield_csv(tmp_path / f"{threads}a" / "ff.csv") for threads in ("1", "2"))
        assert one.max_rel_distance(two) <= 1e-14

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_compare_tolerance_must_be_finite_and_nonnegative(self, tmp_path, capsys, tol):
        path = write_config(tmp_path, "mie.json", ORACLE)
        assert main(["--config", path, "--out", str(tmp_path), "--quiet", "oracle"]) == 0
        table = str(tmp_path / "mie.csv")
        assert main(["--out", str(tmp_path), "--quiet", "compare", table, table, "--tol", "0"]) == 0
        capsys.readouterr()
        assert main(["--out", str(tmp_path), "--quiet", "compare", table, table, f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["no META line", "META key missing", "row missing", "column missing",
                                      "other grid", "other k", "other incidence"])
    def test_compare_rejects_a_table_it_cannot_read_or_compare(self, tmp_path, capsys, case):
        # bad input, not a compute failure: exit 2 with a message naming the file
        path = write_config(tmp_path, "mie.json", ORACLE)
        assert main(["--config", path, "--out", str(tmp_path), "--quiet", "oracle"]) == 0
        good, bad = tmp_path / "mie.csv", tmp_path / "bad.csv"
        lines = good.read_text().splitlines()
        edits = {"no META line": lambda: lines[1:],
                 "META key missing": lambda: [lines[0].replace('"n_incidence"', '"n_inc"')] + lines[1:],
                 "row missing": lambda: lines[:-1],
                 "column missing": lambda: [lines[0], lines[1].replace("obs_phi", "phi")] + lines[2:]}
        if case in edits:
            bad.write_text("\n".join(edits[case]()) + "\n")
        else:
            changes = {"other grid": {"observations": {"n_theta": 3, "n_phi": 8}}, "other k": {"k": 2.5},
                       "other incidence": {"incidences": {"directions": [[1.0, 0.0, 0.0]]}}}
            other = dict(ORACLE, output={"prefix": "bad"}, **changes[case])
            assert main(["--config", write_config(tmp_path, "bad.json", other), "--out", str(tmp_path),
                         "--quiet", "oracle"]) == 0
        capsys.readouterr()
        assert main(["--out", str(tmp_path), "--quiet", "compare", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        if case.startswith("other"):                 # both tables read, but they do not share a grid
            assert str(good) in err

    def test_compare_identical_files(self, tmp_path):
        path = write_config(tmp_path, "ff.json", self.CFG)
        main(["--config", path, "--out", str(tmp_path), "--quiet", "farfield"])
        code = main(["--out", str(tmp_path), "--quiet", "compare",
                     str(tmp_path / "ff.csv"), str(tmp_path / "ff.csv")])
        assert code == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        assert report["rel_l2_distance"] == 0.0
        assert report["max_rel_distance"] == 0.0


class TestOracleComparison:
    def test_bem_sphere_vs_oracle_within_two_percent(self, tmp_path):
        shared = {
            "incidences": {"directions": [[0.0, 0.0, 1.0]]},
            "observations": {"n_theta": 8, "n_phi": 16},
        }
        bem_cfg = {
            "k": 2.0,
            "mesh": {"kind": "sphere", "subdivisions": 3},
            "alpha": 2.0,
            "output": {"prefix": "bem"},
            **shared,
        }
        mie_cfg = {
            "k": 2.0,
            "oracle": {"a": 1.0, "alpha": 2.0, "L": 50},
            "output": {"prefix": "mie"},
            **shared,
        }
        p1 = write_config(tmp_path, "bem.json", bem_cfg)
        p2 = write_config(tmp_path, "mie.json", mie_cfg)
        assert main(["--config", p1, "--out", str(tmp_path), "--quiet", "farfield"]) == 0
        assert main(["--config", p2, "--out", str(tmp_path), "--quiet", "oracle"]) == 0
        code = main(["--out", str(tmp_path), "--quiet", "compare",
                     str(tmp_path / "mie.csv"), str(tmp_path / "bem.csv"),
                     "--tol", "0.02"])
        assert code == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        assert report["rel_l2_distance"] <= 0.02

    def test_compare_exit_code_on_tolerance_breach(self, tmp_path):
        cfg = {
            "k": 2.0,
            "oracle": {"a": 1.0, "alpha": 2.0},
            "incidences": {"directions": [[0.0, 0.0, 1.0]]},
            "observations": {"n_theta": 4, "n_phi": 8},
            "output": {"prefix": "m1"},
        }
        cfg2 = dict(cfg)
        cfg2["oracle"] = {"a": 1.0, "alpha": 1.0}
        cfg2["output"] = {"prefix": "m2"}
        p1 = write_config(tmp_path, "m1.json", cfg)
        p2 = write_config(tmp_path, "m2.json", cfg2)
        main(["--config", p1, "--out", str(tmp_path), "--quiet", "oracle"])
        main(["--config", p2, "--out", str(tmp_path), "--quiet", "oracle"])
        code = main(["--out", str(tmp_path), "--quiet", "compare",
                     str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv"), "--tol", "0.01"])
        assert code == 3


class TestAcousticCommand:
    def test_two_frequency_run(self, tmp_path):
        path = write_config(tmp_path, "ac.json", ACOUSTIC)
        assert main(["--config", path, "--out", str(tmp_path), "--quiet", "acoustic"]) == 0
        for w in (1, 2):
            ff = load_farfield_csv(tmp_path / f"ac_w{w}.csv")
            assert np.all(np.isfinite(ff.values))
            assert np.max(np.abs(ff.values)) > 1e-4

    def test_colliding_table_names_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # each table is {prefix}_w{omega:g}.csv, so these frequencies would write one file twice
        monkeypatch.setattr(acoustic, "DeltaSystem", no_solve)
        for frequencies, field in (([1.0, 1.0000001], "frequencies[1]"), ([2.0, 1.0, 2], "frequencies[2]"),
                                   ([1.5, 1.5], "frequencies[1]")):
            path = write_config(tmp_path, "ac.json", dict(ACOUSTIC, frequencies=frequencies))
            assert main(["--config", path, "--out", str(tmp_path), "acoustic"]) == 2, frequencies
            assert f"'{field}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_one_grid_scan_per_run(self, tmp_path, capsys, monkeypatch):
        # the sampling's grid check is the only scan of the cell centres against Gamma, and it
        # scans the 33 of the 7^3 within Gamma's bounding ball plus one panel diameter; its errors
        # still exit 2 naming the grid
        calls = []
        real = boundary._surface_gap

        def counted(x, mesh):
            calls.append(len(x))
            return real(x, mesh)

        monkeypatch.setattr(boundary, "_surface_gap", counted)
        # boundary cell centres at 2.23, outside the cutoff, so V vanishes on them
        path = write_config(tmp_path, "ac.json", dict(ACOUSTIC, grid={"bbox": [-2.6, 2.6], "n": 7}))
        assert main(["--config", path, "--out", str(tmp_path), "--quiet", "acoustic"]) == 0
        assert calls == [33]
        monkeypatch.setattr(acoustic, "DeltaSystem", no_solve)
        for bbox, n, message in (([-1.5, 1.5], 8, "does not cover the support ball"),
                                 ([-2.2, 2.2], 8, "24 boundary cell centres lie inside the support ball")):
            path = write_config(tmp_path, "small.json", dict(ACOUSTIC, grid={"bbox": bbox, "n": n}))
            assert main(["--config", path, "--out", str(tmp_path), "acoustic"]) == 2
            err = capsys.readouterr().err
            assert "'grid'" in err and message in err


class TestVerifyCommand:
    CFG = {"verify": {"subdivision": 1, "grid_n": 8, "k": 1.0, "w": 0.5, "xi": [1.0, 0.0, 0.0], "R": 1.8},
           "output": {"prefix": "v"}}

    def test_bundle_passes(self, tmp_path):
        path = write_config(tmp_path, "v.json", self.CFG)
        code = main(["--config", path, "--out", str(tmp_path), "--quiet", "verify"])
        assert code == 0
        bundle = json.loads((tmp_path / "v_reports.json").read_text())
        assert bundle["all_pass"]
        names = {r["name"] for r in bundle["reports"]}
        assert {"green_pairing", "fourier_identity", "sommerfeld", "reciprocity"} <= names

    def test_radiation_report_is_blas_thread_independent(self, tmp_path):
        # d_r psi_sc comes from the analytic jet, so the solves' thread-dependent last bits
        # reach the residuals unamplified; a 1e-3 central difference multiplies them by ~1e3
        path = write_config(tmp_path, "v.json", self.CFG)
        metrics = []
        for threads in ("1", "2"):
            run_cli(["--config", path, "--out", str(tmp_path / threads), "--quiet", "verify"], threads)
            bundle = json.loads((tmp_path / threads / "v_reports.json").read_text())
            (radiation,) = [r for r in bundle["reports"] if r["name"] == "sommerfeld"]
            metrics.append(radiation["metrics"])
        for key in ("residuals", "decay_ratios"):
            one, two = (np.array(m[key]) for m in metrics)
            assert np.max(np.abs(one - two) / np.abs(one)) <= 1e-14, key

    def test_one_system_per_medium_serves_every_report(self, tmp_path, monkeypatch):
        # the default run: two systems, one solve_many each, no (system, incident field) twice, and
        # psi1 on the Wronskian sphere once for both Green checks (psi1, psi2, psi1_rho2: 3 evaluations)
        builds, batches, spheres = [], [], []
        init, solve_many, sphere = DeltaSystem.__init__, DeltaSystem.solve_many, harness._total_field_and_radial

        def counted_sphere(sol, *args):
            spheres.append(sol)
            return sphere(sol, *args)

        def counted_init(self, *args):
            builds.append(self)
            init(self, *args)

        def counted_solve_many(self, incidents):
            incidents = list(incidents)
            batches.append((self, incidents))
            return solve_many(self, incidents)

        def whole_grid(sol):
            raise AssertionError("verify sampled a whole-grid field")

        def key(inc):
            return (type(inc).__name__, (inc.rho_dir.rho if hasattr(inc, "rho_dir") else inc.direction).tobytes())

        monkeypatch.setattr(harness, "_total_field_and_radial", counted_sphere)
        monkeypatch.setattr(DeltaSystem, "__init__", counted_init)
        monkeypatch.setattr(DeltaSystem, "solve_many", counted_solve_many)
        monkeypatch.setattr(DeltaSolution, "volume_field", property(whole_grid))
        path = write_config(tmp_path, "v.json", {"verify": {}})
        assert main(["--config", path, "--out", str(tmp_path), "--quiet", "verify"]) == 0
        assert len(builds) == 2
        assert sorted(id(system) for system, _ in batches) == sorted(map(id, builds))
        n_rhs = {id(system): len({key(inc) for inc in incidents}) for system, incidents in batches}
        assert sorted(n_rhs.values()) == [1, 75]  # sys2: Exp(rho2); sys1: Exp(rho1), Exp(rho2), 73 plane waves
        assert sum(len(incidents) for _, incidents in batches) == 76
        assert len(spheres) == 3
