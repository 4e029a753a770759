"""Volume operator entries; cells-only solve DeltaSystem(V, None, k): Born regime, radiation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from deltashell import _dense, boundary
from deltashell.boundary import DeltaSystem, eval_total_field
from deltashell.harness import sommerfeld_check
from deltashell.kernels import plane_wave
from deltashell.volume import (
    PotentialSample,
    assemble_volume_operator,
    ball_self_term,
    volume_potential,
)
from deltashell.geometry import make_volume_grid

from conftest import bump_potential

EZ = np.array([0.0, 0.0, 1.0])


class TestOperator:
    def test_offdiagonal_static_entry(self):
        grid = make_volume_grid((-1.0, 1.0), 4)
        G = assemble_volume_operator(grid, 0.0)
        assert G.dtype == np.float64
        i, j = 0, 37
        d = np.linalg.norm(grid.cell_center[i] - grid.cell_center[j])
        assert_allclose(G[i, j], grid.cell_volume / (4 * np.pi * d), rtol=1e-14)

    def test_diagonal_static_is_equivalent_ball(self):
        h = 0.5
        grid = make_volume_grid((-h, h), 2)
        a = (3 * grid.cell_volume / (4 * np.pi)) ** (1 / 3)
        G = assemble_volume_operator(grid, 0.0)
        assert_allclose(np.diag(G), a * a / 2, rtol=1e-14)

    @pytest.mark.parametrize("k", [0.7, 2.0])
    def test_diagonal_matches_radial_quadrature(self, k):
        # oracle: int_0^a r e^{ikr} dr by adaptive quadrature
        vol = 0.2**3
        a = (3 * vol / (4 * np.pi)) ** (1 / 3)
        re, _ = integrate.quad(lambda r: r * np.cos(k * r), 0, a, epsabs=1e-14)
        im, _ = integrate.quad(lambda r: r * np.sin(k * r), 0, a, epsabs=1e-14)
        assert_allclose(ball_self_term(k, vol), re + 1j * im, atol=1e-15)

    @pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-4, 1e-2])
    def test_small_k_keeps_every_digit(self, k):
        # the closed form (e^{ika}(1 - ika) - 1)/k^2 cancels as ka -> 0; reference: the
        # series int_0^a r e^{ikr} dr = a^2 sum_n (ika)^n / (n! (n + 2)), summed to 30 terms
        vol = 0.32**3
        a = (3 * vol / (4 * np.pi)) ** (1 / 3)
        term, series = 1.0 + 0j, 0j
        for n in range(30):
            series += term / (n + 2)
            term *= 1j * k * a / (n + 1)
        ref = a * a * series
        assert abs(ball_self_term(k, vol) - ref) <= 1e-14 * abs(ref)

    def test_complex_symmetry(self):
        grid = make_volume_grid((-1.0, 1.0), 4)
        G = assemble_volume_operator(grid, 1.3)
        assert np.array_equal(G, G.T)

    def test_size_cap(self, monkeypatch):
        # the cap is boundary's: every kernel fill, volume or surface, checks it there
        monkeypatch.setattr(boundary, "MAX_GRID_CELLS", 100)
        grid = make_volume_grid((-1.0, 1.0), 8)
        with pytest.raises(ValueError, match="cap is 100"):
            assemble_volume_operator(grid, 1.0)

    def test_assembly_is_chunk_invariant(self, monkeypatch):
        # a filled block does not depend on where the rows split
        grid = make_volume_grid((-1.0, 1.0), 6)
        default = assemble_volume_operator(grid, 1.3)
        monkeypatch.setattr(_dense, "CHUNK", grid.n_cells)      # one row per chunk
        assert len(_dense.row_chunks(grid.n_cells, grid.n_cells)) == grid.n_cells
        assert np.array_equal(assemble_volume_operator(grid, 1.3), default)


class TestSolve:
    def test_zero_potential_returns_incident(self, small_grid):
        V = PotentialSample(grid=small_grid, values=np.zeros(small_grid.n_cells))
        sol = DeltaSystem(V, None, 1.5).solve(plane_wave(EZ))
        inc = np.exp(1.5j * small_grid.cell_center @ EZ)
        assert_allclose(sol.volume_field.values, inc, rtol=0, atol=1e-15)

    def test_born_limit(self, small_grid):
        # (psi - psi0)/eps -> -G (bump psi0), applied on the whole grid
        k = 1.5
        base = bump_potential(small_grid, 1.0)
        x = small_grid.cell_center
        psi0 = np.exp(1j * k * x @ EZ)
        supp = base.support()
        born = -volume_potential(x, small_grid, base.values[supp] * psi0[supp], k, cells=supp)

        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            V = PotentialSample(grid=small_grid, values=eps * base.values)
            sol = DeltaSystem(V, None, k).solve(plane_wave(EZ))
            errs.append(np.linalg.norm(sol.volume_field.values - psi0 - eps * born))
        # quadratic remainder: err(eps)/eps^2 roughly constant
        slopes = [errs[i] / errs[i + 1] for i in range(2)]
        for s in slopes:
            assert 50 < s < 200

    def test_residual_small(self, small_grid):
        V = bump_potential(small_grid, 0.8)
        sol = DeltaSystem(V, None, 2.0).solve(plane_wave(EZ))
        assert sol.residual < 1e-10

    def test_eval_at_cell_center_reproduces_grid_value(self, small_grid):
        V = bump_potential(small_grid, 0.8)
        sol = DeltaSystem(V, None, 2.0).solve(plane_wave(EZ))
        idx = [0, 100, int(sol.support[3])]
        vals = eval_total_field(sol, small_grid.cell_center[idx])
        assert np.max(np.abs(vals - sol.volume_field.values[idx])) < 1e-10

    def test_far_value_decays_like_outgoing(self, small_grid):
        V = bump_potential(small_grid, 0.8)
        sol = DeltaSystem(V, None, 2.0).solve(plane_wave(EZ))
        x1, x2 = 6.0 * EZ[None, :], 12.0 * EZ[None, :]
        inc = lambda x: np.exp(2j * x @ EZ)
        s1 = abs(eval_total_field(sol, x1)[0] - inc(x1)[0])
        s2 = abs(eval_total_field(sol, x2)[0] - inc(x2)[0])
        assert 1.5 < s1 / s2 < 2.5

    def test_sommerfeld_residual_decay(self, small_grid):
        V = bump_potential(small_grid, 0.8)
        sol = DeltaSystem(V, None, 2.0).solve(plane_wave(EZ))
        report = sommerfeld_check(sol, 2.0)
        assert report.passed, report.metrics

    def test_boundary_support_warning(self):
        grid = make_volume_grid((-1.0, 1.0), 4)
        with pytest.warns(UserWarning, match="boundary") as record:
            PotentialSample(grid=grid, values=np.ones(grid.n_cells))
        # attributed to the line that built the sample, not the dataclass __init__
        assert [w.filename for w in record] == [__file__]


class TestVolumePotential:
    def test_matches_operator_row(self, small_grid):
        k = 1.1
        supp = np.arange(40, 80)
        G = assemble_volume_operator(small_grid, k, cells=supp)
        density = np.exp(1j * np.linspace(0, 1, len(supp)))
        row_pt = small_grid.cell_center[supp[5]]
        direct = volume_potential(row_pt, small_grid, density, k, cells=supp)
        assert_allclose(direct[0], G[5] @ density, rtol=1e-13)
