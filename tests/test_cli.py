"""Command-line front door: configs, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deltashell
from deltashell import acoustic, cli, harness
from deltashell.cli import main
from deltashell.farfield import load_farfield_csv
from deltashell.geometry import SurfaceMesh, make_sphere_mesh, save_mesh

from conftest import cube_mesh


def no_solve(*args):
    raise AssertionError("the config reached a solve")


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
    "grid": {"bbox": [-2.2, 2.2], "n": 8},
    "incidences": {"directions": [[0.0, 0.0, 1.0]]},
    "observations": {"n_theta": 4, "n_phi": 8},
    "output": {"prefix": "ac"},
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
        "grid.n": ("forward", {"grid": {"bbox": [-1.5, 1.5], "n": 0}}),
        "mesh.subdivisions": ("forward", {"mesh": {"kind": "sphere", "radius": 1.0,
                                                   "subdivisions": -1}}),
        "potential_bumps[0].width": ("forward", {"potential_bumps": [
            {"amplitude": 0.3, "center": [0.0, 0.0, 0.0], "width": 0}]}),
        "kirchhoff.n_theta": ("farfield", {"kirchhoff": {"radius": 2.0, "n_theta": 0}}),
        "observations.n_theta": ("farfield", {"observations": {"n_theta": 0, "n_phi": 12}}),
        "mesh.radius": ("forward", {"mesh": {"kind": "sphere", "radius": 0, "subdivisions": 1}}),
        "cutoff": ("forward", {"cutoff": {"r_inner": 1.4, "r_outer": 1.4}}),
        "medium.cutoff": ("acoustic", {"medium": {"shell_density": 1.0,
                                                  "cutoff": {"r_inner": 2.0, "r_outer": 1.4}}}),
        "frequencies[0]": ("acoustic", {"frequencies": [-1.0]}),
        "verify.subdivision": ("verify", {"verify": {"subdivision": -1}}),
        "verify.grid_n": ("verify", {"verify": {"grid_n": 0}}),
        "grid.bbox": ("forward", {"grid": {"bbox": [1.5, -1.5], "n": 4}}),
        # 0.9 clears the centroids of the 20-panel sphere (0.79) but not its vertices
        "kirchhoff.radius": ("farfield", {"kirchhoff": {"radius": 0}},
                             {"mesh": {"kind": "sphere", "subdivisions": 0},
                              "kirchhoff": {"radius": 0.9}}),
        "medium.cutoff.r_inner": ("acoustic", {"medium": {"shell_density": 1.0,
                                                          "cutoff": {"r_inner": 0.5, "r_outer": 2.0}}}),
        "verify.k": ("verify", {"verify": {"k": -1.0}}),
        "verify.w": ("verify", {"verify": {"w": -0.5}}),
        # B_R must enclose both media: 1.2 cuts the support cells, 1.5 their half-diagonals
        "verify.R": ("verify", {"verify": {"R": 0}}, {"verify": {"R": 1.5}}, {"verify": {"R": 1.2}}),
    }

    @pytest.mark.parametrize("field", list(BAD_FIELDS))
    def test_bad_size_or_width_names_field(self, tmp_path, capsys, field):
        command, *sections = self.BAD_FIELDS[field]
        for section in sections:
            cfg = dict({"forward": FORWARD_TRIVIAL, "farfield": TestFarfieldCommand.CFG,
                        "acoustic": ACOUSTIC, "verify": {}}[command])
            cfg.update(section)
            path = write_config(tmp_path, "bad.json", cfg)
            assert main(["--config", path, "--out", str(tmp_path), command]) == 2, section
            assert f"'{field}'" in capsys.readouterr().err

    def test_verify_radius_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DeltaSystem", no_solve)
        monkeypatch.setattr(harness, "DeltaSystem", no_solve)
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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_byte_identical_at_fixed_blas_threads(self, tmp_path, threads):
        # the determinism claim: same config and same BLAS thread count give the same bytes
        path = write_config(tmp_path, "ff.json", self.CFG)
        src = str(Path(deltashell.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            subprocess.run([sys.executable, "-m", "deltashell.cli", "--config", path,
                            "--out", str(out), "--quiet", "farfield"], env=env, check=True)
        assert (outs[0] / "ff.csv").read_bytes() == (outs[1] / "ff.csv").read_bytes()

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


class TestVerifyCommand:
    def test_bundle_passes(self, tmp_path):
        cfg = {"verify": {"subdivision": 1, "grid_n": 8, "k": 1.0, "w": 0.5,
                          "xi": [1.0, 0.0, 0.0], "R": 1.8},
               "output": {"prefix": "v"}}
        path = write_config(tmp_path, "v.json", cfg)
        code = main(["--config", path, "--out", str(tmp_path), "--quiet", "verify"])
        assert code == 0
        bundle = json.loads((tmp_path / "v_reports.json").read_text())
        assert bundle["all_pass"]
        names = {r["name"] for r in bundle["reports"]}
        assert {"green_pairing", "fourier_identity", "sommerfeld", "reciprocity"} <= names
