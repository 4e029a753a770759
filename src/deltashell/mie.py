"""Partial-wave reference solution for radial media with a delta shell.

Independent oracle for the boundary/volume solvers: a sphere of radius a
carrying a constant surface strength alpha, surrounded by (and/or filled
with) piecewise-constant radial potential shells, under plane-wave
incidence exp(ik d.x).

Mode-by-mode matching: on each radial interval the wave is a combination of
spherical Bessel functions with local wavenumber kappa = sqrt(k^2 - V); at
every interface the field is continuous and its radial derivative jumps by
alpha * u exactly at r = a (and is continuous elsewhere).  The exterior
wave is j_l(kr) + t_l h_l^(1)(kr).

Far field: with psi_sc ~ e^{ikr}/r * f(cos theta),

    f = (-i/k) * sum_l (2l+1) t_l P_l(cos theta),

the (-i/k) mode prefactor is the frozen normalization constant that makes
the oracle match the outgoing-kernel source representation used by the
boundary solver; it is pinned by the Born-regime cross-check in the tests.

Special functions are module-internal: j_l by downward (Miller) recurrence
normalized against j_0/j_1, y_l by upward recurrence, h = j + i y,
derivatives from f'_l = f_{l-1} - (l+1)/z f_l, Legendre polynomials by the
three-term recurrence.  Both recurrences run in their stable directions and
accept complex arguments (needed when k^2 < V in a shell).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialMedium",
    "PartialWaveSolution",
    "ModeMatchingError",
    "SpecialFunctionRangeError",
    "spherical_jn_all",
    "spherical_yn_all",
    "spherical_bessel",
    "spherical_hankel",
    "legendre_all",
    "solve_partial_waves",
    "mie_farfield_values",
]

LMAX_HARD = 200


class SpecialFunctionRangeError(ValueError):
    """l/x combination outside the stable range of the recurrences."""


class ModeMatchingError(RuntimeError):
    """A partial-wave matching system is singular (interior resonance)."""


# ---------------------------------------------------------------------------
# Spherical Bessel / Hankel by stable recurrences
# ---------------------------------------------------------------------------

def spherical_jn_all(lmax: int, z: complex) -> np.ndarray:
    """j_0..j_lmax at z by downward recurrence with normalization."""
    if lmax > LMAX_HARD:
        raise SpecialFunctionRangeError(f"l = {lmax} exceeds the supported range {LMAX_HARD}")
    z = complex(z)
    if z == 0:
        out = np.zeros(lmax + 1, dtype=complex)
        out[0] = 1.0
        return out
    start = lmax + max(20, int(1.2 * abs(z))) + 15
    fp = 0.0 + 0.0j       # f_{n+1}
    fn = 1e-30 + 0.0j     # f_n
    vals = np.zeros(lmax + 1, dtype=complex)
    for n in range(start, 0, -1):
        fm = (2 * n + 1) / z * fn - fp
        fp, fn = fn, fm
        if n - 1 <= lmax:
            vals[n - 1] = fm
        if abs(fn.real) > 1e250 or abs(fn.imag) > 1e250:
            fp *= 1e-250
            fn *= 1e-250
            vals *= 1e-250
    j0 = np.sin(z) / z
    j1 = np.sin(z) / z**2 - np.cos(z) / z
    # normalize against whichever reference value is better conditioned
    if abs(j0) >= abs(j1):
        scale = j0 / vals[0]
    else:
        if lmax == 0:
            scale = j0 / vals[0]
        else:
            scale = j1 / vals[1]
    out = vals * scale
    out[0] = j0
    if lmax >= 1:
        out[1] = j1
    if not np.all(np.isfinite(out)):
        raise SpecialFunctionRangeError(f"j_l overflow at l<={lmax}, z={z}")
    return out


def spherical_yn_all(lmax: int, z: complex) -> np.ndarray:
    """y_0..y_lmax at z by upward recurrence (the stable direction for y)."""
    if lmax > LMAX_HARD:
        raise SpecialFunctionRangeError(f"l = {lmax} exceeds the supported range {LMAX_HARD}")
    z = complex(z)
    if z == 0:
        raise SpecialFunctionRangeError("y_l is singular at z = 0")
    out = np.zeros(lmax + 1, dtype=complex)
    out[0] = -np.cos(z) / z
    if lmax >= 1:
        out[1] = -np.cos(z) / z**2 - np.sin(z) / z
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for n in range(1, lmax):
            out[n + 1] = (2 * n + 1) / z * out[n] - out[n - 1]
    if not np.all(np.isfinite(out)):
        raise SpecialFunctionRangeError(f"y_l overflow at l<={lmax}, z={z}")
    return out


def _derivatives(vals: np.ndarray, z: complex) -> np.ndarray:
    """f'_l = f_{l-1} - (l+1)/z f_l, with f'_0 = -f_1."""
    ell = np.arange(len(vals))
    dv = np.empty_like(vals)
    dv[0] = -(vals[1] if len(vals) > 1 else (np.cos(z) / z - np.sin(z) / z**2))
    if len(vals) > 1:
        dv[1:] = vals[:-1] - (ell[1:] + 1) / z * vals[1:]
    return dv


def spherical_bessel(l: int, x: complex) -> tuple[complex, complex]:
    """(j_l(x), j_l'(x))."""
    lm = max(l, 1)
    j = spherical_jn_all(lm, x)
    jp = _derivatives(j, complex(x))
    return j[l], jp[l]


def spherical_hankel(l: int, x: complex) -> tuple[complex, complex]:
    """(h_l^(1)(x), h_l^(1)'(x))."""
    lm = max(l, 1)
    h = spherical_jn_all(lm, x) + 1j * spherical_yn_all(lm, x)
    hp = _derivatives(h, complex(x))
    return h[l], hp[l]


def legendre_all(lmax: int, x: np.ndarray) -> np.ndarray:
    """P_0..P_lmax at x, shape (lmax + 1, len(x)); three-term recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((lmax + 1, len(x)))
    out[0] = 1.0
    if lmax >= 1:
        out[1] = x
    for n in range(1, lmax):
        out[n + 1] = ((2 * n + 1) * x * out[n] - n * out[n - 1]) / (n + 1)
    return out


# ---------------------------------------------------------------------------
# Radial medium and matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMedium:
    """Sphere of radius a with constant strength alpha plus radial V shells.

    ``shells`` lists (outer_radius, V) with increasing radii and V = 0
    outside the last shell; shells may extend past the delta radius a (the
    delta sits at r = a regardless).
    """

    a: float
    alpha: float
    shells: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("delta radius must be positive")
        radii = [r for r, _ in self.shells]
        if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
            raise ValueError("shell radii must be strictly increasing")
        if any(r <= 0 for r in radii):
            raise ValueError("shell radii must be positive")
        object.__setattr__(self, "shells", tuple((float(r), float(v)) for r, v in self.shells))

    def breakpoints(self) -> np.ndarray:
        """Interface radii: shell boundaries joined with the delta radius."""
        radii = sorted({r for r, _ in self.shells} | {self.a})
        return np.asarray(radii)

    def potential_in_region(self, r_lo: float, r_hi: float) -> float:
        """Constant V on the interval (r_lo, r_hi)."""
        mid = 0.5 * (r_lo + r_hi) if np.isfinite(r_hi) else r_lo * 1.5 + 1.0
        for r_out, v in self.shells:
            if mid < r_out:
                return v
        return 0.0


@dataclass
class PartialWaveSolution:
    k: float
    L: int
    t: np.ndarray                 # exterior coefficients t_0..t_L
    interior: list[np.ndarray]    # matching coefficients per mode
    medium: RadialMedium
    failed_modes: list[int]

    def s_matrix(self) -> np.ndarray:
        """Per-mode S-matrix elements 1 + 2 t_l (unimodular for real media)."""
        return 1.0 + 2.0 * self.t


def _basis_table(L: int, kappa: complex, r: float, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, radial derivatives) of j, y or h = j + iy for all modes 0..L."""
    z = kappa * r
    j = spherical_jn_all(max(L, 1), z)
    if kind == "j":
        f = j
    elif kind == "y":
        f = spherical_yn_all(max(L, 1), z)
    elif kind == "h":
        f = j + 1j * spherical_yn_all(max(L, 1), z)
    else:
        raise ValueError(kind)
    return f[: L + 1], (kappa * _derivatives(f, z))[: L + 1]


def solve_partial_waves(medium: RadialMedium, k: float, L: int | None = None) -> PartialWaveSolution:
    """Match modes through the shells and the alpha jump at r = a.

    Raises the truncation order until |t_l| at the tail falls below 1e-14 of
    the largest coefficient (capped at l = 200).
    """
    if not 0 < k < np.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    bps = medium.breakpoints()
    r_max = bps[-1]
    if medium.potential_in_region(r_max, np.inf) != 0.0:
        raise ValueError("potential must vanish outside the last shell")
    if L is None:
        L = int(np.ceil(k * r_max)) + 30
    L = min(max(L, 4), LMAX_HARD)

    if medium.alpha == 0.0 and all(v == 0.0 for _, v in medium.shells):
        # no scatterer: skip the matching entirely
        t = np.zeros(L + 1, dtype=complex)
        interior = [np.zeros(2 * len(bps), dtype=complex) for _ in range(L + 1)]
        for coeffs in interior:
            coeffs[0] = 1.0
            coeffs[1:-1:2] = 1.0  # regular waves pass through unchanged
        return PartialWaveSolution(k=float(k), L=L, t=t, interior=interior,
                                   medium=medium, failed_modes=[])

    while True:
        t, interior, failed = _solve_modes(medium, k, L, bps)
        tail = np.max(np.abs(t[-2:]))
        scale = max(np.max(np.abs(t)), 1.0e-300)
        if tail <= 1e-14 * max(scale, 1.0) or L >= LMAX_HARD:
            break
        L = min(L + 15, LMAX_HARD)
    return PartialWaveSolution(k=float(k), L=L, t=t, interior=interior,
                               medium=medium, failed_modes=failed)


def _solve_modes(medium: RadialMedium, k: float, L: int, bps: np.ndarray):
    n_if = len(bps)
    # local wavenumbers per region (region i spans bps[i-1]..bps[i])
    kappas = []
    lo = 0.0
    for r in bps:
        V = medium.potential_in_region(lo, r)
        kap = np.sqrt(complex(k**2 - V))
        if kap == 0:
            raise ModeMatchingError(f"k^2 equals the shell potential on ({lo}, {r})")
        kappas.append(kap)
        lo = r
    kappas.append(complex(k))     # exterior

    # basis tables per interface: left j/y, right j/y (or exterior h and known j)
    tables = []
    for m, r in enumerate(bps):
        left = (
            _basis_table(L, kappas[m], r, "j"),
            None if m == 0 else _basis_table(L, kappas[m], r, "y"),
        )
        if m == n_if - 1:
            right = (_basis_table(L, k, r, "h"), None)
            known = _basis_table(L, k, r, "j")
        else:
            right = (
                _basis_table(L, kappas[m + 1], r, "j"),
                _basis_table(L, kappas[m + 1], r, "y"),
            )
            known = None
        tables.append((left, right, known))

    n_unknown = 2 * n_if
    t = np.zeros(L + 1, dtype=complex)
    interior: list[np.ndarray] = []
    failed: list[int] = []

    for l in range(L + 1):
        M = np.zeros((n_unknown, n_unknown), dtype=complex)
        rhs = np.zeros(n_unknown, dtype=complex)
        for m, r in enumerate(bps):
            jump = medium.alpha if np.isclose(r, medium.a) else 0.0
            left, right, known = tables[m]
            left_cols = [c for c in left if c is not None]
            col0 = 0 if m == 0 else 1 + 2 * (m - 1)
            exterior = m == n_if - 1
            colr = n_unknown - 1 if exterior else 1 + 2 * m
            right_cols = [c for c in right if c is not None]

            row_c, row_d = 2 * m, 2 * m + 1
            for c, (val, der) in enumerate(left_cols):
                M[row_c, col0 + c] -= val[l]
                M[row_d, col0 + c] -= der[l] + jump * val[l]
            for c, (val, der) in enumerate(right_cols):
                M[row_c, colr + c] += val[l]
                M[row_d, colr + c] += der[l]
            if known is not None:
                rhs[row_c] -= known[0][l]
                rhs[row_d] -= known[1][l]

        try:
            sol = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            failed.append(l)
            interior.append(np.full(n_unknown, np.nan, dtype=complex))
            continue
        t[l] = sol[-1]
        interior.append(sol)
    if failed:
        raise ModeMatchingError(f"singular matching at modes {failed}")
    return t, interior, failed


def mie_farfield_values(sol: PartialWaveSolution, xi_hat, obs_dirs) -> np.ndarray:
    """Far-field amplitude at unit observation directions for incidence xi_hat.

    Rotationally symmetric about xi_hat: depends only on cos(theta) = xi.obs.
    """
    xi_hat = np.asarray(xi_hat, dtype=float)
    obs = np.atleast_2d(np.asarray(obs_dirs, dtype=float))
    mu = np.clip(obs @ xi_hat, -1.0, 1.0)
    P = legendre_all(sol.L, mu)
    coeff = (2 * np.arange(sol.L + 1) + 1) * sol.t
    return (-1j / sol.k) * (coeff @ P)
