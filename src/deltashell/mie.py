"""Partial-wave reference solution for radial media with a delta shell.

Independent oracle for the boundary/volume solvers: a sphere of radius a
carrying a constant surface strength alpha, surrounded by (and/or filled
with) piecewise-constant radial potential shells, under plane-wave
incidence exp(ik d.x).

Mode matching: on each radial interval the wave is a combination of
spherical Bessel functions with local wavenumber kappa = sqrt(k^2 - V); at
every interface the field is continuous and its radial derivative jumps by
alpha * u exactly at r = a (and is continuous elsewhere).  The exterior
wave is j_l(kr) + t_l h_l^(1)(kr).

Far field: with psi_sc ~ e^{ikr}/r * f(cos theta),

    f = (-i/k) * sum_l (2l+1) t_l P_l(cos theta),

the (-i/k) mode prefactor is the frozen normalization constant that makes
the oracle match the outgoing-kernel source representation used by the
boundary solver; it is pinned by the Born-regime cross-check in the tests.

The spherical Bessel functions j_l, y_l and their derivatives come from
``scipy.special`` (Amos's algorithm for the complex arguments of a shell
with k^2 < V), h = j + i y; the Legendre table comes from numpy's
``legvander``.  All modes are matched in one batched linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialMedium",
    "PartialWaveSolution",
    "ModeMatchingError",
    "SpecialFunctionRangeError",
    "spherical_bessel",
    "spherical_hankel",
    "solve_partial_waves",
    "mie_farfield_values",
]

LMAX_HARD = 200


class SpecialFunctionRangeError(ValueError):
    """A value or derivative that is not finite, or l above LMAX_HARD."""


class ModeMatchingError(RuntimeError):
    """A partial-wave matching system is singular (interior resonance)."""


# ---------------------------------------------------------------------------
# Spherical Bessel / Hankel from scipy.special
# ---------------------------------------------------------------------------

def _radial_basis(L: int, z: complex, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(f_l(z), f_l'(z)) for l = 0..L, with f one of j, y or h = j + iy."""
    from scipy.special import spherical_jn, spherical_yn   # 40-60 ms to import; only the oracle needs it
    if L > LMAX_HARD:
        raise SpecialFunctionRangeError(f"l = {L} exceeds the supported range {LMAX_HARD}")
    ell, z = np.arange(L + 1), complex(z)

    def pair(f):
        return np.stack([f(ell, z), f(ell, z, derivative=True)])

    with np.errstate(all="ignore"):   # a value that is not finite is reported below
        out = pair(spherical_yn) if kind == "y" else pair(spherical_jn)
        if kind == "h":
            out = out + 1j * pair(spherical_yn)
    if not np.all(np.isfinite(out)):
        raise SpecialFunctionRangeError(f"{kind}_l overflow at l <= {L}, z = {z}")
    return out[0], out[1]


def spherical_bessel(l: int, x: complex) -> tuple[complex, complex]:
    """(j_l(x), j_l'(x))."""
    j, jp = _radial_basis(l, x, "j")
    return j[l], jp[l]


def spherical_hankel(l: int, x: complex) -> tuple[complex, complex]:
    """(h_l^(1)(x), h_l^(1)'(x))."""
    h, hp = _radial_basis(l, x, "h")
    return h[l], hp[l]


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
    interior: np.ndarray          # (L + 1, 2n) matching coefficients, columns as in _solve_modes
    medium: RadialMedium

    def s_matrix(self) -> np.ndarray:
        """Per-mode S-matrix elements 1 + 2 t_l (unimodular for real media)."""
        return 1.0 + 2.0 * self.t


def _basis_table(L: int, kappa: complex, r: float, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, radial derivatives) of j, y or h = j + iy for all modes 0..L."""
    val, der = _radial_basis(L, kappa * r, kind)
    return val, kappa * der


def solve_partial_waves(medium: RadialMedium, k: float, L: int | None = None) -> PartialWaveSolution:
    """Match modes through the shells and the alpha jump at r = a.

    Raises the truncation order until |t_l| at the tail falls below 1e-14 of
    the largest coefficient, or of 1 if that is smaller (capped at l = 200).
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
        # no scatterer: skip the matching entirely; regular waves pass through unchanged
        interior = np.zeros((L + 1, 2 * len(bps)), dtype=complex)
        interior[:, 0] = interior[:, 1:-1:2] = 1.0
        return PartialWaveSolution(k=float(k), L=L, t=interior[:, -1], interior=interior, medium=medium)

    while True:
        interior = _solve_modes(medium, k, L, bps)
        t = interior[:, -1]
        if np.max(np.abs(t[-2:])) <= 1e-14 * max(np.max(np.abs(t)), 1.0) or L >= LMAX_HARD:
            break
        L = min(L + 15, LMAX_HARD)
    return PartialWaveSolution(k=float(k), L=L, t=t, interior=interior, medium=medium)


def _solve_modes(medium: RadialMedium, k: float, L: int, bps: np.ndarray) -> np.ndarray:
    """Coefficients (L + 1, 2n) of every mode from one batched solve over the n interfaces.

    Column 0 is the core's j, columns 2m + 1 and 2m + 2 the j and y of the region
    outside interface m, and column -1 is t.  Rows 2m and 2m + 1 hold interface m's
    continuity and its derivative jump (alpha at r = a, else 0).
    """
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

    M = np.zeros((L + 1, 2 * n_if, 2 * n_if), dtype=complex)
    rhs = np.zeros((L + 1, 2 * n_if, 1), dtype=complex)
    for m, r in enumerate(bps):
        jump = medium.alpha if r == medium.a else 0.0   # bps holds a itself
        inner = [(2 * m - 1, "j"), (2 * m, "y")] if m else [(0, "j")]
        for col, kind in inner:
            val, der = _basis_table(L, kappas[m], r, kind)
            M[:, 2 * m, col] = -val
            M[:, 2 * m + 1, col] = -(der + jump * val)
        outer = [(2 * m + 1, "j"), (2 * m + 2, "y")] if m < n_if - 1 else [(-1, "h")]
        for col, kind in outer:
            M[:, 2 * m, col], M[:, 2 * m + 1, col] = _basis_table(L, kappas[m + 1], r, kind)
    val, der = _basis_table(L, k, bps[-1], "j")   # the incident wave's mode
    rhs[:, -2, 0], rhs[:, -1, 0] = -val, -der
    try:
        return np.linalg.solve(M, rhs)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise ModeMatchingError(f"singular matching at k = {k}") from exc


def mie_farfield_values(sol: PartialWaveSolution, xi_hat, obs_dirs) -> np.ndarray:
    """Far-field amplitude at unit observation directions for incidence xi_hat.

    Rotationally symmetric about xi_hat: depends only on cos(theta) = xi.obs.
    """
    xi_hat = np.asarray(xi_hat, dtype=float)
    obs = np.atleast_2d(np.asarray(obs_dirs, dtype=float))
    mu = np.clip(obs @ xi_hat, -1.0, 1.0)
    P = np.polynomial.legendre.legvander(mu, sol.L).T
    coeff = (2 * np.arange(sol.L + 1) + 1) * sol.t
    return (-1j / sol.k) * (coeff @ P)
