"""Verification harness: pairing identities, radiation, uniqueness."""

import dataclasses
import json
import logging

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander
from scipy.special import spherical_jn, spherical_yn

from deltashell.acoustic import GaussianBump, MediumSpec, RadialCutoff
from deltashell.boundary import DeltaSpec, DeltaSystem
from deltashell.farfield import FarFieldPattern, direction_grid, farfield_source
from deltashell.geometry import make_sphere_mesh, make_volume_grid
from deltashell.harness import (
    ALGEBRAIC_TOL,
    PAIRING_REL_TOL,
    SOMMERFELD_MIN_DECAY,
    SOMMERFELD_RADII,
    fourier_identity_check,
    green_pairing_check,
    lattice_directions,
    reciprocity_check,
    sommerfeld_check,
    uniqueness_experiment,
)
from deltashell.kernels import Exponential, plane_wave, sigma_pair_for_xi
from deltashell.mie import RadialMedium, mie_farfield_values, solve_partial_waves

from conftest import bump_potential, radial_field

EZ = np.array([0.0, 0.0, 1.0])
XI = np.array([1.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def sphere_systems(sphere_meshes, small_grid):
    """The assembled systems of the two media at k = 1."""
    mesh = sphere_meshes[2]
    return tuple(DeltaSystem(bump_potential(small_grid, amp),
                             DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, alpha)), 1.0)
                 for amp, alpha in ((0.35, 1.0), (-0.25, 1.5)))


def cgo_solutions(sys1, sys2, xi=XI, w=0.5):
    """(psi1, psi2, psi1 for rho2): each system's solutions for Exp(rho1), Exp(rho2), one solve each."""
    rho1, rho2 = sigma_pair_for_xi(xi, sys1.k, w)
    psi1, psi1_rho2 = sys1.solve_many([Exponential(rho1), Exponential(rho2)])
    return psi1, sys2.solve(Exponential(rho2)), psi1_rho2


@pytest.fixture(scope="module")
def cgo(sphere_systems):
    return cgo_solutions(*sphere_systems)


def reference_pairing(sol1, sol2):
    """<psi1 (Vt1 - Vt2), psi2> over the whole-grid fields of both solutions (one shared mesh)."""
    assert sol1.mesh is sol2.mesh
    vol = sol1.potential.grid.cell_volume
    cells = vol * np.sum(np.conj(sol1.volume_field.values) * (sol1.potential.values - sol2.potential.values)
                         * sol2.volume_field.values)
    dalpha = sol1.delta.alpha - sol2.delta.alpha
    return cells + np.sum(sol1.mesh.panel_area * dalpha * np.conj(sol1.trace) * sol2.trace)


class TestGreenPairing:
    def test_distinct_media(self, cgo):
        psi1, psi2, _ = cgo
        report = green_pairing_check(psi1, psi2, R=1.8)
        assert report.passed
        assert report.metrics["rel_gap"] <= 1e-2
        assert report.inputs == {"k": 1.0, "w1": 0.5, "w2": 0.5, "R": 1.8}

    def test_identical_media_zero_cases(self, cgo, small_grid):
        psi1, _, psi1_rho2 = cgo
        # same medium, same direction: LHS is an algebraic zero
        r_same = green_pairing_check(psi1, psi1, R=1.8)
        assert r_same.passed
        lhs = abs(complex(r_same.metrics["lhs_re"], r_same.metrics["lhs_im"]))
        assert lhs <= 1e-10 * max(r_same.metrics["pairing_mass"], 1.0)
        # same medium, different directions: same-operator Wronskian vanishes; the second
        # time on a Gamma built twice (equal arrays, another object), which is the same medium
        rebuilt = DeltaSystem(bump_potential(small_grid, 0.35),
                              DeltaSpec(mesh=make_sphere_mesh(1.0, 2), alpha=1.0), 1.0)
        assert rebuilt.mesh is not psi1.mesh
        for partner in (psi1_rho2, rebuilt.solve(psi1_rho2.incident)):
            r_cross = green_pairing_check(psi1, partner, R=1.8)
            assert r_cross.passed and r_cross.metrics["identical_media"]
            rhs = abs(complex(r_cross.metrics["rhs_re"], r_cross.metrics["rhs_im"]))
            assert rhs <= 1e-2 * r_cross.metrics["wronskian_mass"]

    def test_a_list_of_partners_gives_each_partner_its_own_report(self, cgo):
        psi1, psi2, psi1_rho2 = cgo
        both = green_pairing_check(psi1, [psi2, psi1_rho2], R=1.8)
        for report, partner in zip(both, (psi2, psi1_rho2), strict=True):
            alone = green_pairing_check(psi1, partner, R=1.8)
            assert dataclasses.replace(report, seconds=0.0) == dataclasses.replace(alone, seconds=0.0)

    def test_containment_validated(self, cgo):
        psi1, psi2, _ = cgo
        # 0.8 cuts Gamma, 1.5 the support cells (centre plus half-diagonal 1.61); nan and inf are no sphere
        for R in (0.8, 1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="does not enclose"):
                green_pairing_check(psi1, psi2, R=R)

    def test_wavenumber_consistency(self, sphere_systems):
        # a direction built for another k than the system's is refused at the solve
        _, sys2 = sphere_systems
        _, rho2 = sigma_pair_for_xi(XI, 2.0, 0.5)
        with pytest.raises(ValueError, match="built for k=2"):
            sys2.solve(Exponential(rho2))

    def test_systems_and_directions_share_one_wavenumber(self, sphere_systems, cgo):
        _, sys2 = sphere_systems
        psi1 = cgo[0]
        # a solution of the second medium at another k (cells only)
        _, rho2 = sigma_pair_for_xi(XI, 2.0, 0.5)
        psi2_k2 = DeltaSystem(sys2.potential, None, 2.0).solve(Exponential(rho2))
        with pytest.raises(ValueError, match="wavenumber"):
            green_pairing_check(psi1, psi2_k2, R=1.8)
        with pytest.raises(ValueError, match="wavenumber"):
            fourier_identity_check(psi1, psi2_k2, XI)

    def test_system_without_potential_rejected(self, sphere_meshes, cgo):
        psi1 = cgo[0]
        mesh = sphere_meshes[1]
        surface_only = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.0)), 1.0)
        sol = surface_only.solve(Exponential(sigma_pair_for_xi(XI, 1.0, 0.5)[1]))
        with pytest.raises(ValueError, match="shared grid"):
            green_pairing_check(psi1, sol, R=1.8)
        with pytest.raises(ValueError, match="shared grid"):
            fourier_identity_check(sol, psi1, XI)

    def test_plane_wave_solution_rejected(self, sphere_systems, cgo):
        sys1, _ = sphere_systems
        psi1, psi2, _ = cgo
        plane = sys1.solve(plane_wave(EZ))
        with pytest.raises(AttributeError, match="rho_dir"):
            green_pairing_check(plane, psi2, R=1.8)
        with pytest.raises(AttributeError, match="rho_dir"):
            fourier_identity_check(psi1, plane, XI)

    def test_supports_that_differ(self, sphere_meshes, small_grid):
        # the second bump is cut off at r = 1.0, so cells weighted by V1 - V2 lie off its support
        mesh = sphere_meshes[2]
        potentials = (bump_potential(small_grid, 0.35), bump_potential(small_grid, -0.25, r_in=0.7, r_out=1.0))
        sys1, sys2 = (DeltaSystem(V, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, alpha)), 1.0)
                      for V, alpha in zip(potentials, (1.0, 1.5)))
        assert len(np.setdiff1d(sys1.support, sys2.support)) > 0
        psi1, psi2, _ = cgo_solutions(sys1, sys2)
        ref = reference_pairing(psi1, psi2)
        green = green_pairing_check(psi1, psi2, R=1.8)
        four = fourier_identity_check(psi1, psi2, XI)
        assert green.passed and four.passed
        for report, key in ((green, "lhs"), (four, "pairing")):
            got = complex(report.metrics[f"{key}_re"], report.metrics[f"{key}_im"])
            assert abs(got - ref) <= 1e-12 * report.metrics["pairing_mass"]


class TestFourierIdentity:
    def test_exact_split(self, cgo):
        psi1, psi2, _ = cgo
        report = fourier_identity_check(psi1, psi2, XI)
        assert report.passed
        assert report.metrics["split_err"] <= 1e-10
        assert report.metrics["finite_w_remainder"] > 0  # reported, not asserted
        assert report.inputs == {"k": 1.0, "w": 0.5, "xi": [1.0, 0.0, 0.0]}

    def test_pairing_matches_whole_grid_reference(self, cgo):
        psi1, psi2, _ = cgo
        report = fourier_identity_check(psi1, psi2, XI)
        got = complex(report.metrics["pairing_re"], report.metrics["pairing_im"])
        assert abs(got - reference_pairing(psi1, psi2)) <= 1e-12 * report.metrics["pairing_mass"]

    def test_directions_must_match_xi(self, cgo):
        psi1, psi2, _ = cgo
        for xi in (-XI, 2.0 * XI, np.array([0.0, 1.0, 0.0])):
            with pytest.raises(ValueError, match="-i xi"):
                fourier_identity_check(psi1, psi2, xi)

    def test_identical_media_all_terms_vanish(self, cgo):
        psi1, _, psi1_rho2 = cgo
        report = fourier_identity_check(psi1, psi1_rho2, XI)
        assert report.metrics["split_err"] <= 1e-10
        for key in ("pairing_re", "pairing_im", "F_re", "F_im",
                    "fourier_diff_re", "fourier_diff_im"):
            assert abs(report.metrics[key]) <= 1e-12

    def test_zero_frequency_fourier_difference(self, sphere_systems):
        # xi = 0: the Fourier difference is the plain quadrature of the data
        sys1, sys2 = sphere_systems
        psi1, psi2, _ = cgo_solutions(sys1, sys2, np.zeros(3), w=0.7)
        report = fourier_identity_check(psi1, psi2, np.zeros(3))
        assert report.inputs["w"] == 0.7
        vol = sys1.potential.grid.cell_volume
        direct = (
            vol * np.sum(sys2.potential.values - sys1.potential.values)
            + np.sum(sys2.mesh.panel_area * sys2.delta.alpha)
            - np.sum(sys1.mesh.panel_area * sys1.delta.alpha)
        )
        got = complex(report.metrics["fourier_diff_re"], report.metrics["fourier_diff_im"])
        assert abs(got - direct) < 1e-10 * abs(direct)


class TestSommerfeld:
    def test_zero_scatterer(self):
        report = sommerfeld_check(lambda pts: (np.zeros(len(pts), dtype=complex),) * 2, 1.0)
        assert report.passed

    def test_point_like_scatterer(self, sphere_meshes):
        mesh = make_sphere_mesh(0.2, 1)
        delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 0.5))
        sol = DeltaSystem(None, delta, 1.5).solve(plane_wave(EZ))
        report = sommerfeld_check(sol, 1.5)
        assert report.passed
        for ratio in report.metrics["decay_ratios"]:
            assert 1.8 <= ratio <= 2.2  # outgoing monopole: residual ~ 1/r

    def test_solution_at_another_k_rejected(self):
        mesh = make_sphere_mesh(0.2, 1)
        sol = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=0.5), 1.5).solve(plane_wave(EZ))
        with pytest.raises(ValueError, match="k=1.5, not at the check's k=2"):
            sommerfeld_check(sol, 2.0)

    def test_mie_analytic_fields(self):
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0)
        ell = np.arange(sol.L + 1)
        pref = (1j**ell) * (2 * ell + 1) * sol.t

        def scattered(pts):
            # d_r psi_sc = sum_l i^l (2l + 1) t_l k h_l'(kr) P_l(cos theta), term by term
            r = np.linalg.norm(pts, axis=1)
            P = legvander(pts @ EZ / r, sol.L).T
            d_r = []
            for z, p in zip(sol.k * r, P.T):
                hp = spherical_jn(ell, z, derivative=True) + 1j * spherical_yn(ell, z, derivative=True)
                d_r.append(sol.k * np.sum(pref * hp * p))
            return radial_field(sol, EZ, pts, scattered_only=True), np.array(d_r)

        report = sommerfeld_check(scattered, 2.0)
        assert report.passed


class TestReciprocity:
    def _pattern_from_mie(self, k=2.0, alpha=2.0):
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=alpha), k)
        g = direction_grid(6, 12)
        vals = np.stack([mie_farfield_values(sol, d, g.normals) for d in g.normals])
        return FarFieldPattern(k=k, values=vals, observations=g.normals,
                               obs_weights=g.weights, incidence=g.normals)

    def test_mie_pattern_exact(self):
        report = reciprocity_check(self._pattern_from_mie())
        assert report.passed
        assert report.metrics["max_rel_asymmetry"] < 1e-12

    def test_zero_pattern(self):
        g = direction_grid(4, 8)
        ff = FarFieldPattern(k=1.0, values=np.zeros((g.n_nodes, g.n_nodes)),
                             observations=g.normals, obs_weights=g.weights,
                             incidence=g.normals)
        report = reciprocity_check(ff)
        assert report.passed
        assert report.metrics["max_rel_asymmetry"] == 0.0

    def test_bem_pattern_within_tolerance(self, sphere_meshes):
        k = 2.0
        mesh = sphere_meshes[2]
        system = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0)), k)
        g = direction_grid(4, 8)
        vals = np.stack([farfield_source(system.solve(plane_wave(d)), g.normals)
                         for d in g.normals])
        ff = FarFieldPattern(k=k, values=vals, observations=g.normals,
                             obs_weights=g.weights, incidence=g.normals)
        report = reciprocity_check(ff, rel_tol=0.01)
        assert report.passed

    def test_grid_mismatch_rejected(self):
        g = direction_grid(4, 8)
        ff = FarFieldPattern(k=1.0, values=np.zeros((3, g.n_nodes)),
                             observations=g.normals, obs_weights=g.weights,
                             incidence=g.normals[:3])
        with pytest.raises(ValueError, match="identical"):
            reciprocity_check(ff)


class TestUniqueness:
    @staticmethod
    def _builder(xi, v_amp=0.0):
        def make(level):
            mesh = make_sphere_mesh(1.0, level)
            v_bumps = (
                (GaussianBump(amplitude=v_amp, center=(0.0, 0.0, 0.0), width=0.6),)
                if v_amp else ()
            )
            return MediumSpec(gamma=mesh, shell_density=np.full(mesh.n_panels, xi),
                              v_bumps=v_bumps, cutoff=RadialCutoff(1.4, 2.0))
        return make

    @pytest.fixture(scope="class")
    def setup(self):
        grid = make_volume_grid((-2.2, 2.2), 10)
        obs = direction_grid(4, 8)
        inc = direction_grid(3, 4).normals
        return grid, obs, inc

    def test_distinct_shell_density_separates(self, setup):
        # light resolutions: the 80-panel floor at omega = 2 is ~6%, so ask
        # for 3x separation here; the 10x criterion runs at (2, 3) in the
        # acceptance suite
        grid, obs, inc = setup
        report = uniqueness_experiment(self._builder(1.0), self._builder(1.5),
                                       1.0, 2.0, grid, obs, inc, levels=(1, 2),
                                       separation=3.0)
        assert report.passed, report.metrics
        assert not report.metrics["identical_media"]

    def test_a_and_b_share_one_kernel_per_frequency(self, setup, caplog):
        # A and B lie on one Gamma with one support: at each frequency A's kernel is filled,
        # B reuses it, and A coarse is filled
        caplog.set_level(logging.DEBUG, logger="deltashell")
        grid, obs, inc = setup
        uniqueness_experiment(self._builder(1.0), self._builder(1.5), 1.0, 2.0, grid, obs, inc,
                              levels=(1, 2), separation=3.0)
        kernels = [r.getMessage() for r in caplog.records if r.getMessage().startswith("delta-shell kernel")]
        assert [line.split(", ")[0].removeprefix("delta-shell kernel: ") for line in kernels] == (
            ["filled", "reused", "filled"] * 2)
        assert [line.split(", ")[2] for line in kernels] == ["k = 1"] * 3 + ["k = 2"] * 3

    def test_identical_media_within_floor(self, setup):
        grid, obs, inc = setup
        report = uniqueness_experiment(self._builder(1.0), self._builder(1.0),
                                       1.0, 2.0, grid, obs, inc, levels=(1, 2))
        assert report.passed
        assert report.metrics["identical_media"]

    def test_identical_media_with_array_centred_bumps(self, setup):
        # each medium gets its own centre array; the media still compare equal
        grid, obs, inc = setup

        def make(level):
            mesh = make_sphere_mesh(1.0, level)
            return MediumSpec(gamma=mesh, shell_density=np.full(mesh.n_panels, 1.0),
                              v_bumps=(GaussianBump(0.3, np.zeros(3), 0.6),), cutoff=RadialCutoff(1.4, 2.0))

        report = uniqueness_experiment(make, make, 1.0, 2.0, grid, obs, inc, levels=(1, 2))
        assert report.passed
        assert report.metrics["identical_media"]

    def test_frequency_validation(self, setup):
        grid, obs, inc = setup
        with pytest.raises(ValueError, match="distinct"):
            uniqueness_experiment(self._builder(1.0), self._builder(1.5),
                                  1.0, 1.0, grid, obs, inc)


class TestReportFormat:
    def test_json_schema(self, cgo):
        psi1, psi2, _ = cgo
        report = green_pairing_check(psi1, psi2, R=1.8)
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) == {"name", "inputs", "metrics", "thresholds", "pass", "seconds"}
        assert isinstance(payload["pass"], bool)

    def test_thresholds_record_the_module_constants(self, sphere_meshes):
        grid = make_volume_grid((-1.6, 1.6), 8)
        mesh = sphere_meshes[1]
        sys1, sys2 = (DeltaSystem(bump_potential(grid, amp),
                                  DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, a)), 1.0)
                      for amp, a in ((0.35, 1.0), (-0.25, 1.5)))
        psi1, psi2, _ = cgo_solutions(sys1, sys2)
        assert green_pairing_check(psi1, psi2, R=1.8).thresholds == {
            "rel_gap": PAIRING_REL_TOL}
        assert green_pairing_check(psi1, psi1, R=1.8).thresholds == {
            "lhs_zero": ALGEBRAIC_TOL, "rhs_over_mass": PAIRING_REL_TOL}
        assert fourier_identity_check(psi1, psi2, XI).thresholds == {
            "split_err": ALGEBRAIC_TOL}
        radiation = sommerfeld_check(lambda pts: (np.zeros(len(pts), dtype=complex),) * 2, 1.0)
        assert radiation.thresholds == {"decay_per_doubling": SOMMERFELD_MIN_DECAY}
        assert radiation.inputs["radii"] == list(SOMMERFELD_RADII)
