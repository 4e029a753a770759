"""Free-space Helmholtz kernel, incident fields, and complex directions.

Conventions (fixed here and used everywhere):

* outgoing kernel        G_k(x, y) = exp(+ik|x-y|) / (4 pi |x-y|)
* plane wave             exp(+ik d.x), |d| = 1
* complex direction      rho = w zeta + i sqrt(w^2 + k^2) xi  with
                         zeta.xi = 0, so that rho.rho = -k^2 (unconjugated
                         dot product); w = 0 recovers the plane wave rho = ik xi
* radiation residual     |x| (x_hat.grad - ik) u_sc -> 0 selects outgoing fields
* real arithmetic        the static kernel (k = 0) is float64; at k > 0 its
                         parts cos(kr)/(4 pi r) and sin(kr)/(4 pi r) are
                         computed apart, and a block writes a far source's
                         cos P - sin Q and sin P + cos Q separately
                         into its real and imaginary part, so no complex
                         exponential is taken and no complex product is summed
* phases                 every e^{i theta} is ``_cis``: cos and sin from one SIMD
                         tan(theta/2), within 1.5 * 2^-52 of the exact values
* jets                   a value and its gradient from one pass and one ``_cis``;
                         a block's jet is the value, then the x-derivatives, and
                         an incident field's ``jet`` (n, 4) is too, from one phase

Exponential incident fields exp(rho.x) grow like exp(w |x|); evaluation
refuses |Re(rho).x| > 40 to avoid overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _equal

__all__ = [
    "radial_kernel",
    "radial_gradient_factor",
    "radial_remainder",
    "radial_remainder_gradient_factor",
    "ComplexDirection",
    "make_sigma_k",
    "sigma_pair_for_xi",
    "PlaneWave",
    "Exponential",
    "Herglotz",
    "plane_wave",
    "eval_incident",
    "eval_incident_grad",
    "OverflowGuardError",
]

_EXP_GUARD = 40.0


class OverflowGuardError(ValueError):
    """Exponential incident field requested outside its safe range."""


def _check_k(k: float, other: float, message: str) -> None:
    """ValueError(message) unless the wavenumber ``other`` is ``k`` within 1e-12 max(1, k)."""
    if abs(other - k) > 1e-12 * max(1.0, k):
        raise ValueError(message)


def _cis(x) -> tuple:
    """(cos x, sin x) for float64 x as (1 - t^2)/(1 + t^2) and 2t/(1 + t^2), t = tan(x/2): x/2 is
    exact and tan(x/2) finite for every finite x, so there is no pole to branch on."""
    t = np.multiply(x, 0.5, out=np.empty(np.shape(x)))
    np.tan(t, out=t)
    d = t * t
    c = 1.0 - d
    d += 1.0
    c /= d
    t += t
    t /= d
    return c, t


def _joined(parts: list):
    """One array from float64 parts: a single part as it is, [re, im] as re + i im in one complex array."""
    if len(parts) == 1:
        return parts[0]
    out = np.empty(np.shape(parts[0]), dtype=complex)
    out.real, out.imag = parts
    return out[()]


def radial_kernel(r, k: float):
    """Outgoing kernel exp(ik r)/(4 pi r) as a function of the distance r; float64 at k = 0."""
    inv = 1.0 / (4.0 * np.pi * r)
    return inv if k == 0 else _joined([part * inv for part in _cis(k * r)])


def radial_gradient_factor(r, k: float):
    """Factor e^{ikr}(ikr - 1)/(4 pi r^3): grad_x G_k(x, y) = (x - y) times it; float64 at k = 0."""
    inv3 = 1.0 / (4.0 * np.pi * r**3)
    if k == 0:
        return -inv3
    kr = k * r
    c, s = _cis(kr)
    # e^{ikr}(ikr - 1) = -(c + s kr) + i (c kr - s)
    return _joined([(-kr * s - c) * inv3, (kr * c - s) * inv3])


def _remainder_parts(r, k: float, grad: bool = False) -> tuple[list, list]:
    """(value parts, gradient parts): ``radial_remainder`` g and, with ``grad``, ``radial_remainder_gradient_factor``
    as [re, im] from c, s = cos h, sin h at h = kr/2: g = (ik/4 pi) e^{ih} sinc(h) + k^2 r/(8 pi)."""
    h = 0.5 * k * r
    c, s = _cis(h)
    sinc = np.divide(s, h, out=np.ones(np.shape(h)), where=h != 0)
    re, im = -0.25 * k / np.pi * s * sinc + k**2 * r / (8.0 * np.pi), 0.25 * k / np.pi * c * sinc
    if not grad:
        return [re, im], []
    # g'/r = ((ik/4 pi) e^{ikr} - g + k^2 r/(4 pi))/r^2, with e^{ikr} = (c^2 - s^2) + i 2sc
    return [re, im], [(-0.5 * k / np.pi * s * c - re + k**2 * r / (4.0 * np.pi)) / r**2,
                      (0.25 * k / np.pi * (c * c - s * s) - im) / r**2]


def radial_remainder(r, k: float):
    """Kernel minus its singular terms: e^{ikr}/(4 pi r) - 1/(4 pi r) + k^2 r/(8 pi).

    Written as (ik/4 pi) e^{ikr/2} sinc(kr/2) + k^2 r/(8 pi), so it is finite
    (ik/(4 pi)) at r = 0; its first kink is in the r^3 term.
    """
    return _joined(_remainder_parts(r, k)[0])


def radial_remainder_gradient_factor(r, k: float):
    """Factor g'(r)/r of g = radial_remainder: its x-gradient is (x - y) times it (r > 0)."""
    return _joined(_remainder_parts(r, k, grad=True)[1])


# ---------------------------------------------------------------------------
# Sigma_k = {rho in C^3 : rho.rho = -k^2}
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ComplexDirection:
    """Element rho of Sigma_k: rho.rho = -k^2 (unconjugated dot product)."""

    rho: np.ndarray       # (3,) complex
    k: float
    __eq__, __hash__ = _equal, None

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        dot = rho @ rho
        if abs(dot + self.k**2) > 1e-10 * max(self.k**2, 1.0):
            raise ValueError(f"rho.rho = {dot} differs from -k^2 = {-self.k**2}")
        object.__setattr__(self, "rho", rho)

    @property
    def w(self) -> float:
        """|Re rho|, the growth rate of exp(rho.x)."""
        return float(np.linalg.norm(self.rho.real))


def make_sigma_k(w: float, zeta_hat, xi_hat, k: float) -> ComplexDirection:
    """Build rho = w zeta + i sqrt(w^2 + k^2) xi in Sigma_k."""
    if not 0 < k < np.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    if w < 0:
        raise ValueError("w must be nonnegative")
    zeta_hat = np.asarray(zeta_hat, dtype=float)
    xi_hat = np.asarray(xi_hat, dtype=float)
    for name, v in (("zeta_hat", zeta_hat), ("xi_hat", xi_hat)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError(f"{name} is not a unit vector")
    if abs(zeta_hat @ xi_hat) > 1e-10:
        raise ValueError("zeta_hat and xi_hat must be orthogonal")
    return ComplexDirection(rho=w * zeta_hat + 1j * np.sqrt(w**2 + k**2) * xi_hat, k=float(k))


def _orthonormal_complement(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing u/|u| to an orthonormal frame."""
    u = u / np.linalg.norm(u)
    helper = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    a = np.cross(u, helper)
    a /= np.linalg.norm(a)
    b = np.cross(u, a)
    return a, b


def sigma_pair_for_xi(xi, k: float, w: float) -> tuple[ComplexDirection, ComplexDirection]:
    """Pair (rho1, rho2) in Sigma_k with conj(rho1) + rho2 = -i xi.

    Construction: pick mu, nu completing xi to an orthogonal frame and set

        rho1 =  w mu + i (xi/2 + s nu),   rho2 = -w mu + i (-xi/2 + s nu),

    with s = sqrt(w^2 + k^2 - |xi|^2/4), which requires w^2 + k^2 >= |xi|^2/4.
    """
    xi = np.asarray(xi, dtype=float)
    if not 0 < k < np.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    if w < 0:
        raise ValueError("w must be nonnegative")
    xi_norm = np.linalg.norm(xi)
    s_sq = w**2 + k**2 - xi_norm**2 / 4.0
    if s_sq < 0:
        raise ValueError(
            f"insufficient w for this xi: need w^2 + k^2 >= |xi|^2/4 "
            f"({w**2 + k**2:.6g} < {xi_norm**2 / 4.0:.6g})"
        )
    s = np.sqrt(s_sq)
    mu, nu = _orthonormal_complement(xi) if xi_norm > 0 else (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    return (ComplexDirection(rho=w * mu + 1j * (xi / 2.0 + s * nu), k=float(k)),
            ComplexDirection(rho=-w * mu + 1j * (-xi / 2.0 + s * nu), k=float(k)))


# ---------------------------------------------------------------------------
# Incident fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PlaneWave:
    """exp(+ik d.x) with a real unit direction d."""

    direction: np.ndarray
    __eq__, __hash__ = _equal, None

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-10:
            raise ValueError("plane wave direction must be a unit vector")
        object.__setattr__(self, "direction", d)

    def values(self, k: float, points: np.ndarray) -> np.ndarray:
        return _joined(_cis(k * (np.atleast_2d(points) @ self.direction)))

    def jet(self, k: float, points: np.ndarray) -> np.ndarray:
        vals = self.values(k, points)
        return np.column_stack([vals, 1j * k * self.direction[None, :] * vals[:, None]])


@dataclass(frozen=True, eq=False)
class Exponential:
    """Generalized eigenfunction exp(rho.x), rho in Sigma_k."""

    rho_dir: ComplexDirection
    __eq__, __hash__ = _equal, None

    def values(self, k: float, points: np.ndarray) -> np.ndarray:
        _check_k(k, self.rho_dir.k, f"incident field built for k={self.rho_dir.k}, asked for k={k}")
        points = np.atleast_2d(points)
        phase = points @ self.rho_dir.rho
        re_max = np.max(np.abs(phase.real)) if phase.size else 0.0
        if re_max > _EXP_GUARD:
            raise OverflowGuardError(
                f"|Re(rho).x| = {re_max:.3g} exceeds the overflow guard {_EXP_GUARD}"
            )
        scale = np.exp(phase.real)
        return _joined([part * scale for part in _cis(phase.imag)])

    def jet(self, k: float, points: np.ndarray) -> np.ndarray:
        vals = self.values(k, points)
        return np.column_stack([vals, self.rho_dir.rho[None, :] * vals[:, None]])


@dataclass(frozen=True, eq=False)
class Herglotz:
    """Superposition int_{S^2} f(d) exp(ik d.x) dsigma(d) over a direction rule."""

    directions: np.ndarray   # (m, 3) unit vectors
    weights: np.ndarray      # (m,) quadrature weights on S^2
    density: np.ndarray      # (m,) complex samples of f
    __eq__, __hash__ = _equal, None

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        f = np.asarray(self.density, dtype=complex)
        if not (len(d) == len(w) == len(f)):
            raise ValueError("directions, weights and density must have equal length")
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "density", f)

    def values(self, k: float, points: np.ndarray) -> np.ndarray:
        return self._phases(k, points) @ (self.weights * self.density)

    def jet(self, k: float, points: np.ndarray) -> np.ndarray:
        phases, wf = self._phases(k, points), self.weights * self.density
        return np.column_stack([phases @ wf, phases @ (wf[:, None] * (1j * k * self.directions))])

    def _phases(self, k: float, points: np.ndarray) -> np.ndarray:
        """exp(ik d.x), (n, m): one row per point, one column per direction."""
        return _joined(_cis(k * (np.atleast_2d(points) @ self.directions.T)))


IncidentField = PlaneWave | Exponential | Herglotz


def plane_wave(direction) -> PlaneWave:
    return PlaneWave(direction=np.asarray(direction, dtype=float))


def eval_incident(f: IncidentField, k: float, x) -> np.ndarray | complex:
    """Incident field value(s) at x (a point or an (n, 3) array)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    vals = f.values(k, np.atleast_2d(x))
    return vals[0] if single else vals


def eval_incident_grad(f: IncidentField, k: float, x) -> np.ndarray:
    """Analytic gradient of the incident field at x."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    grads = f.jet(k, np.atleast_2d(x))[:, 1:]
    return grads[0] if single else grads
