"""Far-field patterns by two independent routes, and the scattering amplitude.

The scattered field behaves like psi_sc(x) ~ e^{ik|x|}/|x| * psi_inf(x_hat);
this module extracts psi_inf

* from the flux (Kirchhoff) integral over a sphere |y| = R0 enclosing the
  scatterer,

      psi_inf(x_hat) = 1/(4 pi) int_{|y|=R0} [ psi_sc  y_hat.grad e^{-ik x_hat.y}
                                   - e^{-ik x_hat.y}  y_hat.grad psi_sc ] dsigma,

  which is R0-independent in the continuum, and
* directly from the discrete sources,

      psi_inf(x_hat) = -1/(4 pi) [ sum_cells e^{-ik x_hat.c} (V psi) vol
                                 + sum_panels (int e^{-ik x_hat.y} dsigma) eta ],

  the far-field limit of the outgoing-kernel representation.

Both routes describe the same discrete solution; their agreement is a
consistency check, not a convergence statement.

Each row belongs to a plane-wave incidence and defines the scattering
amplitude s = (2 pi)^{3/2} psi_inf; the acoustic far field equals
(2 pi)^{-3/2} s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._dense import row_chunks
from .boundary import DeltaSolution, eval_scattered_field, eval_scattered_gradient
from .geometry import SphereGrid, SurfaceMesh, make_sphere_grid
from .volume import PotentialSample


__all__ = [
    "FarFieldPattern",
    "AMPLITUDE_SCALE",
    "CONVENTIONS",
    "direction_grid",
    "farfield_source",
    "farfield_kirchhoff",
    "check_enclosing_radius",
    "scattering_amplitude",
    "save_farfield_csv",
    "load_farfield_csv",
]

AMPLITUDE_SCALE = (2.0 * np.pi) ** 1.5

CONVENTIONS = {
    "kernel": "exp(+ik r)/(4 pi r)",
    "incident_plane_wave": "exp(+ik xi_hat . x)",
    "farfield_definition": "psi_sc ~ exp(+ik|x|)/|x| * psi_inf(x_hat)",
    "amplitude_scale": "s = (2 pi)^{3/2} psi_inf",
    "mie_mode_prefactor": "-i/k per (2l+1) t_l P_l",
    "radiation_residual": "|x| (x_hat.grad - ik) psi_sc -> 0",
}


def direction_grid(n_theta: int = 16, n_phi: int = 32) -> SphereGrid:
    """Unit-sphere direction/observation grid (antipode-closed for even n_phi)."""
    return make_sphere_grid(1.0, n_theta, n_phi)


@dataclass
class FarFieldPattern:
    """psi_inf tabulated on incidence x observation direction grids."""

    k: float
    values: np.ndarray            # (n_inc, n_obs) complex
    observations: np.ndarray      # (n_obs, 3) unit vectors
    obs_weights: np.ndarray       # S^2 quadrature weights (sum 4 pi) or uniform
    incidence: np.ndarray         # (n_inc, 3) plane-wave unit vectors
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=complex))
        self.observations = np.atleast_2d(np.asarray(self.observations, dtype=float))
        self.obs_weights = np.asarray(self.obs_weights, dtype=float)
        self.incidence = np.asarray(self.incidence, dtype=float)
        if self.values.shape[1] != len(self.observations):
            raise ValueError("values/observations shape mismatch")
        if self.incidence.shape != (len(self.values), 3):
            raise ValueError(f"incidence must be ({len(self.values)}, 3), one direction per "
                             f"value row; got shape {self.incidence.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("far field has non-finite values")

    def rel_l2_distance(self, other: "FarFieldPattern") -> float:
        """Weighted relative L^2 distance; grids must coincide."""
        self._check_same_grid(other)
        w = self.obs_weights[None, :]
        num = np.sqrt(np.sum(w * np.abs(self.values - other.values) ** 2))
        den = np.sqrt(np.sum(w * np.abs(self.values) ** 2))
        return float(num / max(den, 1e-300))

    def max_rel_distance(self, other: "FarFieldPattern") -> float:
        self._check_same_grid(other)
        scale = max(np.max(np.abs(self.values)), 1e-300)
        return float(np.max(np.abs(self.values - other.values)) / scale)

    def _check_same_grid(self, other: "FarFieldPattern") -> None:
        if self.values.shape != other.values.shape:
            raise ValueError("far-field tables have different shapes")
        if np.max(np.abs(self.observations - other.observations)) > 1e-9:
            raise ValueError("far-field tables use different observation grids")
        if abs(self.k - other.k) > 1e-12 * max(1.0, self.k):
            raise ValueError("far-field tables computed at different wavenumbers")


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

def farfield_source(sol, obs: np.ndarray) -> np.ndarray:
    """Far field at unit directions obs, from the sources.

    ``sol`` is one ``DeltaSolution`` (result (n_obs,)) or a list of solutions
    of one system (result (n_sol, n_obs)).  Cell centers and panel quadrature
    points share one phase matrix, built in observation chunks and applied to
    all solutions in one product.
    """
    single = isinstance(sol, DeltaSolution)
    sols = [sol] if single else list(sol)
    first = sols[0]
    if any(s.k != first.k or s.delta is not first.delta or s.potential is not first.potential
           for s in sols):
        raise ValueError("batched solutions must come from one system")
    # source points and (n_points, n_sol) weights: cell sources, then panel densities
    pts, coef = [np.zeros((0, 3))], [np.zeros((0, len(sols)), dtype=complex)]
    if len(first.support):
        pts.append(first.potential.grid.cell_center[first.support])
        coef.append(np.stack([s.source_density for s in sols], axis=1) * first.potential.grid.cell_volume)
    eta = np.stack([s.density.eta for s in sols], axis=1) * first.mesh.panel_area[:, None]
    if np.any(eta):
        qpts, w = first.mesh.quadrature_points()
        pts.append(qpts.reshape(-1, 3))
        coef.append((eta[:, None, :] * w[None, :, None]).reshape(-1, len(sols)))
    pts, coef = np.concatenate(pts), np.concatenate(coef)

    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    out = np.empty((len(obs), len(sols)), dtype=complex)
    for rows in row_chunks(len(obs), len(pts)):
        out[rows] = np.exp(-1j * first.k * (obs[rows] @ pts.T)) @ coef
    out = -out.T / (4.0 * np.pi)
    return out[0] if single else out


def check_enclosing_radius(R: float, mesh: SurfaceMesh, V: PotentialSample | None) -> None:
    """Raise ValueError unless the sphere |y| = R clears the scatterer by 2%.

    The scatterer reaches the mesh's vertex radius and, for each support cell
    of V, its centre radius plus 0.87 spacings (a cell's half-diagonal).
    """
    r_scat = mesh.bounding_radius
    support = V.support() if V is not None else []
    if len(support):
        r_scat = max(r_scat, float(np.max(np.linalg.norm(V.grid.cell_center[support], axis=1)))
                     + 0.87 * float(np.max(V.grid.spacing)))
    if R <= r_scat * 1.02:
        raise ValueError(f"R = {R} does not enclose the scatterer (radius {r_scat:.3g})")


def farfield_kirchhoff(
    sol: DeltaSolution,
    R0: float,
    obs: np.ndarray,
    n_theta: int = 24,
    n_phi: int = 48,
) -> np.ndarray:
    """Far field from the flux integral over the sphere |y| = R0.

    The normal derivative of the scattered field is the analytic gradient
    of the source representation (``eval_scattered_gradient``).
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    check_enclosing_radius(R0, sol.mesh, sol.potential)
    sphere = make_sphere_grid(R0, n_theta, n_phi)
    y, ny, w = sphere.nodes, sphere.normals, sphere.weights
    k = sol.k

    psi_sc = eval_scattered_field(sol, y)
    grad = eval_scattered_gradient(sol, y)
    dn_psi = np.einsum("ij,ij->i", ny, grad)

    phases = np.exp(-1j * k * (obs @ y.T))                    # (n_obs, n_nodes)
    radial = obs @ ny.T                                       # x_hat . y_hat
    integrand = psi_sc[None, :] * (-1j * k * radial) * phases - phases * dn_psi[None, :]
    return (integrand @ w) / (4.0 * np.pi)


def scattering_amplitude(ff: FarFieldPattern) -> FarFieldPattern:
    """s = (2 pi)^{3/2} psi_inf for plane-wave incidence rows."""
    meta = dict(ff.meta)
    meta["quantity"] = "scattering_amplitude"
    meta["scale"] = "(2 pi)^{3/2}"
    return FarFieldPattern(
        k=ff.k, values=AMPLITUDE_SCALE * ff.values, observations=ff.observations,
        obs_weights=ff.obs_weights, incidence=ff.incidence, meta=meta,
    )


# ---------------------------------------------------------------------------
# CSV persistence (JSON metadata header + fixed-format rows)
# ---------------------------------------------------------------------------

def _angles(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(v[:, 1], v[:, 0]), 2.0 * np.pi)
    return theta, phi


def _unit(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_farfield_csv(ff: FarFieldPattern, path, extra_meta: dict | None = None) -> None:
    meta = {
        "k": ff.k,
        "conventions": CONVENTIONS,
        "incidence_kind": "plane",
        "n_incidence": ff.values.shape[0],
        "n_observation": ff.values.shape[1],
        "obs_weights": [float(w) for w in ff.obs_weights],
    }
    meta.update(ff.meta)
    if extra_meta:
        meta.update(extra_meta)
    obs_t, obs_p = _angles(ff.observations)
    with open(path, "w") as fh:
        fh.write("# META " + json.dumps(meta, sort_keys=True) + "\n")
        inc_t, inc_p = _angles(ff.incidence)
        fh.write("k,inc_theta,inc_phi,obs_theta,obs_phi,re,im\n")
        for i in range(ff.values.shape[0]):
            for j in range(ff.values.shape[1]):
                v = ff.values[i, j]
                fh.write(",".join([
                    _fmt(ff.k), _fmt(inc_t[i]), _fmt(inc_p[i]),
                    _fmt(obs_t[j]), _fmt(obs_p[j]), _fmt(v.real), _fmt(v.imag),
                ]) + "\n")


def load_farfield_csv(path) -> FarFieldPattern:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# META "):
        raise ValueError(f"{path}: missing metadata header")
    meta = json.loads(lines[0][len("# META "):])
    if meta.get("incidence_kind") != "plane":
        raise ValueError(f"{path}: incidence kind {meta.get('incidence_kind')!r} is not 'plane'")
    header = lines[1].split(",")
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[2:] if ln])
    n_inc, n_obs = meta["n_incidence"], meta["n_observation"]
    if len(rows) != n_inc * n_obs:
        raise ValueError(f"{path}: expected {n_inc * n_obs} rows, found {len(rows)}")
    k = float(meta["k"])
    vals = (rows[:, -2] + 1j * rows[:, -1]).reshape(n_inc, n_obs)
    obs_t = rows[:n_obs, header.index("obs_theta")]
    obs_p = rows[:n_obs, header.index("obs_phi")]
    observations = _unit(obs_t, obs_p)
    inc_t = rows[::n_obs, header.index("inc_theta")]
    inc_p = rows[::n_obs, header.index("inc_phi")]
    incidence = _unit(inc_t, inc_p)
    weights = np.asarray(meta.get("obs_weights", np.full(n_obs, 4.0 * np.pi / n_obs)), dtype=float)
    return FarFieldPattern(
        k=k, values=vals, observations=observations,
        obs_weights=weights, incidence=incidence, meta=meta,
    )
