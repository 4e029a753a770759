"""Partial-wave oracle: special functions, matching limits, far field."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import deltashell
from deltashell.mie import (
    ModeMatchingError,
    RadialMedium,
    SpecialFunctionRangeError,
    mie_farfield_values,
    solve_partial_waves,
    spherical_bessel,
    spherical_hankel,
)

from conftest import radial_field


class TestSpecialFunctions:
    def test_j0_closed_form(self):
        j, jp = spherical_bessel(0, 1.0)
        assert_allclose(j, np.sin(1.0) / 1.0, rtol=1e-14)

    def test_h0_closed_form(self):
        h, hp = spherical_hankel(0, 1.0)
        assert_allclose(h, -1j * np.exp(1j * 1.0) / 1.0, rtol=1e-13)
        assert_allclose(abs(h), 1.0, rtol=1e-13)

    @pytest.mark.parametrize("ell", [0, 3, 10])
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
    def test_wronskian(self, ell, x):
        j, jp = spherical_bessel(ell, x)
        h, hp = spherical_hankel(ell, x)
        assert abs(j * hp - jp * h - 1j / x**2) < 1e-12 / x**2 + 1e-15

    def test_range_error(self):
        with pytest.raises(SpecialFunctionRangeError):
            spherical_hankel(150, 0.05)
        with pytest.raises(SpecialFunctionRangeError):
            spherical_bessel(500, 1.0)

    def test_overflow_raises_without_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SpecialFunctionRangeError, match="overflow"):
                spherical_hankel(150, 0.05)

    def test_import_leaves_scipy_special_out(self):
        # only the oracle calls scipy.special, and it imports it on first use
        src = str(Path(deltashell.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, deltashell; from deltashell import cli; print('scipy.special' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


class TestMatching:
    def test_no_scatterer(self):
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=0.0), 2.0)
        assert np.max(np.abs(sol.t)) == 0.0

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_wavenumber_must_be_positive_and_finite(self, k):
        # nan failed converting the mode count to an integer
        with pytest.raises(ValueError, match="k must be positive and finite"):
            solve_partial_waves(RadialMedium(a=1.0, alpha=1.0), k)

    def test_sound_soft_limit(self):
        k, a = 2.0, 1.0
        sol = solve_partial_waves(RadialMedium(a=a, alpha=1e6), k, L=25)
        for ell in range(10):
            j, _ = spherical_bessel(ell, k * a)
            h, _ = spherical_hankel(ell, k * a)
            assert abs(sol.t[ell] - (-j / h)) < 1e-4 * max(abs(j / h), 1e-8)

    def test_small_alpha_expansion(self):
        # t_l = -i alpha k a^2 j_l(ka)^2 + O(alpha^2)
        k, a = 2.0, 1.0
        errs = []
        for alpha in (1e-2, 1e-3, 1e-4):
            sol = solve_partial_waves(RadialMedium(a=a, alpha=alpha), k, L=12)
            worst = 0.0
            for ell in range(6):
                j, _ = spherical_bessel(ell, k * a)
                lead = -1j * alpha * k * a**2 * j**2
                worst = max(worst, abs(sol.t[ell] - lead))
            errs.append(worst)
        # remainder shrinks quadratically with alpha
        assert 50 < errs[0] / errs[1] < 200
        assert 50 < errs[1] / errs[2] < 200

    def test_per_mode_unitarity(self):
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0)
        active = np.abs(sol.t) > 1e-13
        assert np.max(np.abs(np.abs(sol.s_matrix()[active]) - 1.0)) < 1e-10

    def test_unitarity_with_shells(self):
        m = RadialMedium(a=1.0, alpha=1.5, shells=((0.5, -0.8), (1.0, 0.6)))
        sol = solve_partial_waves(m, 2.0)
        active = np.abs(sol.t) > 1e-13
        assert np.max(np.abs(np.abs(sol.s_matrix()[active]) - 1.0)) < 1e-10

    def test_unitarity_with_evanescent_shell(self):
        # V = 9 > k^2 in the core: kappa = i sqrt(5), so the basis takes complex arguments
        m = RadialMedium(a=1.0, alpha=1.0, shells=((0.6, 9.0),))
        sol = solve_partial_waves(m, 2.0)
        active = np.abs(sol.t) > 1e-13
        assert np.max(np.abs(np.abs(sol.s_matrix()[active]) - 1.0)) < 1e-10

    def test_delta_only_at_its_radius(self):
        # an empty shell whose edge lies within np.isclose of a took the jump alpha twice
        alone = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0, L=40)
        m = RadialMedium(a=1.0, alpha=2.0, shells=((1.000001, 0.0),))
        assert np.max(np.abs(solve_partial_waves(m, 2.0, L=40).t - alone.t)) < 1e-12

    def test_truncation_tail(self):
        k, a = 2.0, 1.0
        L = int(k * a) + 30
        sol = solve_partial_waves(RadialMedium(a=a, alpha=2.0), k, L=L)
        assert np.abs(sol.t[-1]) < 1e-12 * np.max(np.abs(sol.t))

    def test_interior_resonance_detected(self):
        # kappa = 0 in a shell: k^2 == V
        m = RadialMedium(a=1.0, alpha=1.0, shells=((1.0, 4.0),))
        with pytest.raises(ModeMatchingError):
            solve_partial_waves(m, 2.0)

    def test_shells_beyond_delta_radius(self):
        # delta at a = 1 with a potential shell out to r = 1.5
        m = RadialMedium(a=1.0, alpha=1.0, shells=((1.5, 0.4),))
        sol = solve_partial_waves(m, 2.0)
        assert np.max(np.abs(sol.t)) > 1e-3
        active = np.abs(sol.t) > 1e-13
        assert np.max(np.abs(np.abs(sol.s_matrix()[active]) - 1.0)) < 1e-10


class TestFarField:
    def test_zero_coefficients_give_zero(self):
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=0.0), 1.0)
        vals = mie_farfield_values(sol, [0, 0, 1.0], np.eye(3))
        assert np.max(np.abs(vals)) == 0.0

    def test_axisymmetry(self, rng):
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0)
        xi = np.array([0.0, 0.0, 1.0])
        theta = 0.7
        phis = rng.uniform(0, 2 * np.pi, size=8)
        obs = np.stack([np.sin(theta) * np.cos(phis), np.sin(theta) * np.sin(phis),
                        np.full(8, np.cos(theta))], axis=1)
        vals = mie_farfield_values(sol, xi, obs)
        assert np.max(np.abs(vals - vals[0])) < 1e-12 * abs(vals[0])

    def test_reciprocity_exact(self, rng):
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0)
        for _ in range(5):
            xi = rng.normal(size=3)
            xi /= np.linalg.norm(xi)
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            a = mie_farfield_values(sol, xi, x[None, :])[0]
            b = mie_farfield_values(sol, -x, -xi[None, :])[0]
            assert abs(a - b) < 1e-14 + 1e-12 * abs(a)

    def test_born_against_shell_integral(self):
        # tiny alpha: far field -> -(alpha/4pi) int_{|y|=a} e^{ik(xi - x).y} dsigma
        #                        = -alpha a^2 j0(k a |xi - x|)
        k, alpha = 2.0, 1e-4
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=alpha), k, L=15)
        xi = np.array([0.0, 0.0, 1.0])
        obs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        for x_hat in obs:
            z = k * np.linalg.norm(xi - x_hat)
            born = -alpha * (np.sin(z) / z if z > 0 else 1.0)
            val = mie_farfield_values(sol, xi, x_hat[None, :])[0]
            assert abs(val - born) < 0.001 * abs(born)

    def test_radial_field_matches_farfield_asymptotics(self):
        sol = solve_partial_waves(RadialMedium(a=1.0, alpha=2.0), 2.0)
        xi = np.array([0.0, 0.0, 1.0])
        x_hat = np.array([np.sin(1.1), 0.0, np.cos(1.1)])
        r = 600.0
        sc = radial_field(sol, xi, r * x_hat[None, :], scattered_only=True)[0]
        ff = mie_farfield_values(sol, xi, x_hat[None, :])[0]
        approx = sc * r * np.exp(-1j * sol.k * r)
        assert abs(approx - ff) < 5e-3 * abs(ff)

    def test_radial_field_continuity_at_interfaces(self):
        m = RadialMedium(a=1.0, alpha=1.5, shells=((0.6, -0.5), (1.0, 0.0)))
        sol = solve_partial_waves(m, 2.0)
        xi = np.array([0.0, 0.0, 1.0])
        for r0 in (0.6, 1.0):
            x = np.array([0.3, -0.2, 0.9])
            x /= np.linalg.norm(x)
            inner = radial_field(sol, xi, (r0 - 1e-9) * x[None, :])[0]
            outer = radial_field(sol, xi, (r0 + 1e-9) * x[None, :])[0]
            assert abs(inner - outer) < 1e-6 * abs(inner)
