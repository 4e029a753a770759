"""Kernel values, Sigma_k algebra, incident fields."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltashell import kernels
from deltashell.geometry import make_sphere_grid
from deltashell.kernels import (
    Exponential,
    Herglotz,
    OverflowGuardError,
    _cis,
    eval_incident,
    eval_incident_grad,
    make_sigma_k,
    plane_wave,
    radial_gradient_factor,
    radial_kernel,
    radial_remainder,
    radial_remainder_gradient_factor,
    sigma_pair_for_xi,
)

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def kernel(x, y, k):
    """G_k(x, y) = exp(ik|x - y|)/(4 pi |x - y|) from the radial kernel."""
    return radial_kernel(np.linalg.norm(x - y, axis=-1), k)


class TestKernel:
    def test_static_value(self):
        assert_allclose(kernel(EZ, np.zeros(3), 0.0), 1.0 / (4 * np.pi), rtol=1e-15)

    def test_oscillatory_value(self):
        assert_allclose(kernel(EZ, np.zeros(3), 2.0), np.exp(2j) / (4 * np.pi), rtol=1e-15)

    def test_symmetry_random_pairs(self, rng):
        x = rng.normal(size=(100, 3))
        y = rng.normal(size=(100, 3))
        assert_allclose(kernel(x, y, 1.7), kernel(y, x, 1.7), rtol=0, atol=1e-16)

    def test_gradient_matches_finite_differences(self, rng):
        x = rng.normal(size=3) + np.array([2.0, 0, 0])
        y = rng.normal(size=3) * 0.1
        k, h = 1.3, 1e-6
        g = (x - y) * radial_gradient_factor(np.linalg.norm(x - y), k)
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            fd = (kernel(x + e, y, k) - kernel(x - e, y, k)) / (2 * h)
            assert abs(g[ax] - fd) < 1e-7 * abs(g[ax]) + 1e-12

    def test_static_kernel_is_real(self):
        r = np.geomspace(1e-3, 10.0, 50)
        for got, ref in ((radial_kernel(r, 0.0), 1.0 / (4 * np.pi * r)),
                         (radial_gradient_factor(r, 0.0), -1.0 / (4 * np.pi * r**3))):
            assert got.dtype == np.float64
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("k", [0.5, 1.7, 2.0])
    def test_real_and_imaginary_parts_are_the_exponential_form(self, k):
        # the kernel's parts are cos(kr)/(4 pi r) and sin(kr)/(4 pi r) from ``_cis`` (tested
        # against long-double cos and sin in TestCis); the gradient factor's parts are
        # formed in another order than exp(ikr)(ikr - 1)
        r = np.random.default_rng(7).uniform(1e-3, 10.0, 2**16)
        ref = np.exp(1j * k * r) * (1j * k * r - 1.0) / (4 * np.pi * r**3)
        assert np.max(np.abs(radial_gradient_factor(r, k) - ref) / np.abs(ref)) <= 1e-15

    def test_remainder_is_kernel_minus_singular_terms(self):
        k = 2.3
        r = np.geomspace(1e-2, 10.0, 50)
        direct = radial_kernel(r, k) - radial_kernel(r, 0.0) + k**2 * r / (8 * np.pi)
        assert_allclose(radial_remainder(r, k), direct, rtol=1e-12)
        assert radial_remainder(0.0, k) == 0.25j * k / np.pi
        assert radial_remainder(r, 0.0).tolist() == [0.0] * len(r)

    def test_remainder_gradient_factor_is_derivative_over_r(self):
        k, h = 2.3, 1e-6
        r = np.geomspace(1e-3, 10.0, 40)
        fd = (radial_remainder(r + h, k) - radial_remainder(r - h, k)) / (2 * h)
        assert_allclose(radial_remainder_gradient_factor(r, k) * r, fd, rtol=1e-7)


# the x ranges on which _cis is checked: large arguments, both signs, and near the zeros
# of cos and of sin
CIS_RANGES = [(0.0, 4.0), (0.0, 40.0), (0.0, 1e4), (-50.0, 50.0),
              (np.pi / 2 - 1e-3, np.pi / 2 + 1e-3), (np.pi - 1e-3, np.pi + 1e-3)]
# the AVX-512 targets numpy may dispatch float64 tan to; numpy warns about, and ignores,
# the names its build does not dispatch
NO_AVX512 = "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR AVX512_KNL AVX512_KNM X86_V4"


class TestCis:
    def test_against_long_double(self):
        # cos and sin from one tan(x/2) lie within 1.5 * 2^-52 of the exact values (libm's
        # long-double cos and sin, 64-bit mantissa on x86-64)
        rng = np.random.default_rng(11)
        for lo, hi in CIS_RANGES:
            x = rng.uniform(lo, hi, 400_000)
            c, s = _cis(x)
            exact = x.astype(np.longdouble)
            err = max(np.max(np.abs(c - np.cos(exact))), np.max(np.abs(s - np.sin(exact))))
            assert err <= 1.5 * 2.0**-52, (lo, hi, err / 2.0**-52)
        for x in (np.float64(2.0), np.asarray(2.0), 2.0):
            c, s = _cis(x)
            assert np.shape(c) == np.shape(s) == ()
            assert abs(c - np.cos(np.longdouble(2.0))) <= 1.5 * 2.0**-52
            assert abs(s - np.sin(np.longdouble(2.0))) <= 1.5 * 2.0**-52

    def test_against_long_double_without_avx512(self):
        # the same check with numpy's AVX-512 dispatch off, where float64 tan is scalar code
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               f"{__file__}::TestCis::test_against_long_double"],
                              env=env, cwd=Path(__file__).parents[1], capture_output=True, text=True)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


class TestSigmaK:
    def test_plane_wave_limit(self):
        rho = make_sigma_k(0.0, EX, EZ, 2.0)
        assert_allclose(rho.rho, 2j * EZ, atol=1e-15)
        assert rho.w == 0.0

    def test_imaginary_norm(self):
        rho = make_sigma_k(3.0, EX, EZ, 4.0)
        assert_allclose(np.linalg.norm(rho.rho.imag), 5.0, rtol=1e-13)

    @pytest.mark.parametrize("w,k", [(0.0, 1.0), (2.0, 1.0), (5.0, 3.0)])
    def test_defining_identity(self, w, k):
        rho = make_sigma_k(w, EX, EY, k)
        dot = rho.rho @ rho.rho
        assert abs(dot.real + k**2) < 1e-10 * k**2 + 1e-14
        assert abs(dot.imag) < 1e-10 * k**2 + 1e-14

    def test_validation(self):
        with pytest.raises(ValueError, match="unit"):
            make_sigma_k(1.0, 2 * EX, EZ, 1.0)
        with pytest.raises(ValueError, match="orthogonal"):
            make_sigma_k(1.0, EX, (EX + EZ) / np.sqrt(2), 1.0)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_wavenumber_must_be_positive_and_finite(self, k):
        # nan and inf gave nan directions
        with pytest.raises(ValueError, match="k must be positive and finite"):
            make_sigma_k(1.0, EX, EZ, k)


class TestSigmaPair:
    def test_zero_xi_gives_conjugate_pair(self):
        r1, r2 = sigma_pair_for_xi(np.zeros(3), 1.0, 2.0)
        assert_allclose(r2.rho, -np.conj(r1.rho), atol=1e-13)

    def test_constraint_boundary(self):
        # |xi| = 2k, w = 0: s = 0 and rho1 = i xi / 2
        xi = 2.0 * EX
        r1, r2 = sigma_pair_for_xi(xi, 1.0, 0.0)
        assert_allclose(r1.rho, 0.5j * xi, atol=1e-13)
        assert abs(r1.rho @ r1.rho + 1.0) < 1e-12

    def test_membership_and_pairing(self):
        xi = EX.copy()
        r1, r2 = sigma_pair_for_xi(xi, 1.0, 1.0)
        for r in (r1, r2):
            assert abs(r.rho @ r.rho + 1.0) < 1e-12
        assert np.max(np.abs(np.conj(r1.rho) + r2.rho + 1j * xi)) < 1e-10 * 2.0

    def test_insufficient_w(self):
        with pytest.raises(ValueError, match="insufficient w"):
            sigma_pair_for_xi(10.0 * EX, 1.0, 0.5)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_wavenumber_must_be_positive_and_finite(self, k):
        with pytest.raises(ValueError, match="k must be positive and finite"):
            sigma_pair_for_xi(EX, k, 1.0)


class TestIncidentFields:
    def test_compare_by_value_and_stay_unhashable(self):
        # equal arrays make equal directions and fields, as for the package's other frozen types
        g = make_sphere_grid(1.0, 4, 8)
        for make in (lambda: make_sigma_k(1.0, EX, EZ, 2.0), lambda: plane_wave(EZ),
                     lambda: Exponential(make_sigma_k(1.0, EX, EZ, 2.0)),
                     lambda: Herglotz(directions=g.normals, weights=g.weights, density=np.ones(g.n_nodes))):
            assert make() == make()
            with pytest.raises(TypeError):
                hash(make())
        assert make_sigma_k(1.0, EX, EZ, 2.0) != make_sigma_k(1.0, EX, EY, 2.0)
        assert make_sigma_k(1.0, EX, EZ, 2.0) != make_sigma_k(1.0, EX, EZ, 3.0)
        assert plane_wave(EZ) != plane_wave(EX)
        assert plane_wave(EZ) != Exponential(make_sigma_k(0.0, EX, EZ, 1.0))

    def test_plane_wave_at_origin(self):
        assert_allclose(eval_incident(plane_wave(EZ), 2.0, np.zeros(3)), 1.0)

    def test_plane_wave_is_exponential_at_w_zero(self, rng):
        k = 1.7
        pw = plane_wave(EZ)
        ex = Exponential(make_sigma_k(0.0, EX, EZ, k))
        pts = rng.normal(size=(20, 3))
        assert_allclose(eval_incident(pw, k, pts), eval_incident(ex, k, pts), rtol=1e-13)

    def test_herglotz_constant_density_at_origin(self):
        g = make_sphere_grid(1.0, 12, 24)
        h = Herglotz(directions=g.normals, weights=g.weights, density=np.ones(g.n_nodes))
        assert_allclose(eval_incident(h, 1.0, np.zeros(3)), 4 * np.pi, rtol=1e-12)

    def test_herglotz_constant_density_closed_form(self, rng):
        # int e^{ik d.x} dsigma(d) = 4 pi sin(k|x|)/(k|x|)
        k = 1.4
        g = make_sphere_grid(1.0, 16, 32)
        h = Herglotz(directions=g.normals, weights=g.weights, density=np.ones(g.n_nodes))
        for _ in range(5):
            x = rng.normal(size=3)
            r = np.linalg.norm(x)
            assert_allclose(
                eval_incident(h, k, x), 4 * np.pi * np.sin(k * r) / (k * r), rtol=1e-10
            )

    def test_herglotz_degree_one_harmonic_vanishes_at_origin(self):
        g = make_sphere_grid(1.0, 12, 24)
        h = Herglotz(directions=g.normals, weights=g.weights, density=g.normals[:, 2].astype(complex))
        assert abs(eval_incident(h, 1.0, np.zeros(3))) < 1e-12

    @pytest.mark.parametrize("w", [0.0, 1.0, 3.0])
    def test_exponential_solves_helmholtz(self, w, rng):
        # second-order FD residual of (lap + k^2) e^{rho.x}
        k, h = 2.0, 1e-3
        rho = make_sigma_k(w, EX, EZ, k)
        f = Exponential(rho)
        for _ in range(20):
            x = rng.normal(size=3)
            if abs(np.real(rho.rho @ x)) > 5:
                x = x / np.linalg.norm(x)
            lap = -6.0 * eval_incident(f, k, x)
            for ax in range(3):
                e = np.zeros(3)
                e[ax] = h
                lap += eval_incident(f, k, x + e) + eval_incident(f, k, x - e)
            lap /= h**2
            resid = lap + k**2 * eval_incident(f, k, x)
            assert abs(resid) <= 1e-4 * k**2 * abs(eval_incident(f, k, x))

    def test_gradients_match_finite_differences(self, rng):
        k, h = 1.6, 1e-6
        g = make_sphere_grid(1.0, 8, 16)
        fields = [
            plane_wave(EZ),
            Exponential(make_sigma_k(1.2, EX, EY, k)),
            Herglotz(directions=g.normals, weights=g.weights,
                     density=(g.normals[:, 0] + 0.3).astype(complex)),
        ]
        x = rng.normal(size=3) * 0.4
        for f in fields:
            grad = eval_incident_grad(f, k, x)
            for ax in range(3):
                e = np.zeros(3)
                e[ax] = h
                fd = (eval_incident(f, k, x + e) - eval_incident(f, k, x - e)) / (2 * h)
                assert abs(grad[ax] - fd) < 1e-6 * (abs(grad[ax]) + 1.0)

    def test_jet_takes_one_phase(self, rng, monkeypatch):
        # the value, then the gradient, from one _cis (and for exp(rho.x) one overflow scan): bitwise
        # the values and the gradient written as the constant factor times them, or for the
        # Herglotz field the two products with the phase matrix
        k = 1.6
        g = make_sphere_grid(1.0, 4, 8)
        x = rng.normal(size=(7, 3)) * 0.4
        rho = make_sigma_k(1.2, EX, EY, k)
        fields = [(plane_wave(EZ), 1j * k * EZ), (Exponential(rho), rho.rho),
                  (Herglotz(directions=g.normals, weights=g.weights, density=g.normals[:, 0] + 0.3j), None)]
        calls = []

        def counted(theta):
            calls.append(np.shape(theta))
            return _cis(theta)

        for f, factor in fields:
            values = f.values(k, x)
            gradients = eval_incident_grad(f, k, x) if factor is None else factor[None, :] * values[:, None]
            monkeypatch.setattr(kernels, "_cis", counted)
            calls.clear()
            jet = f.jet(k, x)
            monkeypatch.undo()
            assert len(calls) == 1
            assert np.array_equal(jet[:, 0], values) and np.array_equal(jet[:, 1:], gradients)

    def test_overflow_guard(self):
        rho = make_sigma_k(10.0, EX, EZ, 1.0)
        with pytest.raises(OverflowGuardError):
            eval_incident(Exponential(rho), 1.0, 10.0 * EX)

    def test_exponential_checks_wavenumber(self):
        rho = make_sigma_k(0.0, EX, EZ, 2.0)
        with pytest.raises(ValueError, match="built for k"):
            eval_incident(Exponential(rho), 1.0, EZ)
