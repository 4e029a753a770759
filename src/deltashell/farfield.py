"""Far-field patterns by two independent routes, and the scattering amplitude.

The scattered field behaves like psi_sc(x) ~ e^{ik|x|}/|x| * psi_inf(x_hat);
this module extracts psi_inf

* from the flux (Kirchhoff) integral over a sphere |y| = R0 enclosing the
  scatterer,

      psi_inf(x_hat) = 1/(4 pi) int_{|y|=R0} [ psi_sc  y_hat.grad e^{-ik x_hat.y}
                                   - e^{-ik x_hat.y}  y_hat.grad psi_sc ] dsigma,

  which is R0-independent in the continuum, and
* directly from the discrete sources,

      psi_inf(x_hat) = -1/(4 pi) sum_j e^{-ik x_hat.c_j} (A_j - k^2 |P_j x_hat|^2 / 2) q_j,

  the far field of the kernel's far rule, summed over the sources of V~
  with strengths q = w psi from the kernel's own coefficients (``boundary``'s
  source table: point c, measure A and the rank-2 factor P of the second
  moment M = P^T P).

Both routes describe the same discrete solution; their agreement is a
consistency check, not a convergence statement.

Each row belongs to a plane-wave incidence and defines the scattering
amplitude s = (2 pi)^{3/2} psi_inf; the acoustic far field equals
(2 pi)^{-3/2} s.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ._dense import map_chunks, matmul, row_chunks
from .boundary import DeltaSolution, _log, _radial, _scattered, _strength, _support_sources
from .geometry import SphereGrid, SurfaceMesh, make_sphere_grid
from .kernels import _check_k, _cis, _joined
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
        """Weighted relative L^2 distance; k, the directions and the weights must coincide."""
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
        if self.values.shape != other.values.shape or self.obs_weights.shape != other.obs_weights.shape:
            raise ValueError("far-field tables have different shapes")
        for name in ("observations", "incidence", "obs_weights"):
            if np.max(np.abs(getattr(self, name) - getattr(other, name)), initial=0.0) > 1e-9:
                raise ValueError(f"far-field tables use different {name}")
        _check_k(self.k, other.k, "far-field tables computed at different wavenumbers")


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

def farfield_source(sol, obs: np.ndarray) -> np.ndarray:
    """Far field at unit directions obs, from the sources.

    ``sol`` is one ``DeltaSolution`` (result (n_obs,)) or a list of solutions
    of one system (result (n_sol, n_obs)).  Every source of V~ radiates as the kernel's far
    rule, a monopole of its measure A plus a quadrupole of its moment M = P^T P at its point c,
    with far field -e^{-ik x.c} (A - k^2 |P x|^2 / 2)/(4 pi) times its strength w psi, read from
    the source table's ``weight`` A/(4 pi) and ``factor`` P/sqrt(4 pi); one phase matrix over
    the sources is built in blocks of about two observation chunks, each applied to all
    solutions in one product.  Logs one DEBUG record: solutions, directions, sources, seconds.
    """
    start = time.perf_counter()
    single = isinstance(sol, DeltaSolution)
    sols = [sol] if single else list(sol)
    if not sols:
        raise ValueError("farfield_source: the batch of solutions is empty")
    first = sols[0]
    if any(s.k != first.k or s.delta != first.delta or s.potential != first.potential for s in sols):
        raise ValueError("batched solutions must come from one system")
    src = _support_sources(first.potential, first.support, first.delta)
    q = np.stack([_strength(s) for s in sols], axis=1)                  # (n_sources, n_sol)
    k, p = first.k, src.factor[:, :3]

    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    out = np.empty((len(sols), len(obs)), dtype=complex, order="F")
    for block in row_chunks(len(obs), len(src.point) // 2):
        phases = np.empty((len(obs[block]), len(src.point)), dtype=complex)

        def fill(rows):
            x = obs[block][rows]
            phases[rows].real, phases[rows].imag = _cis(-k * np.einsum("ik,jk->ij", x, src.point))
            px = np.einsum("ik,akj->aij", x, p)                              # P x / sqrt(4 pi)
            w = np.add(*np.square(px, out=px), out=px[0])                   # |P x|^2 / (4 pi)
            phases[rows] *= np.add(np.multiply(w, -0.5 * k**2, out=w), src.weight[0], out=w)

        map_chunks(fill, row_chunks(len(phases), len(src.point)))
        matmul(q.T, phases.T, out=out[:, block])
    _log.debug("delta-shell far field: %d solutions, %d directions, %d sources, %.3f s",
               len(sols), len(obs), len(src.point), time.perf_counter() - start)
    return -(out[0] if single else out)


def check_enclosing_radius(R: float, mesh: SurfaceMesh, V: PotentialSample | None) -> None:
    """Raise ValueError unless the sphere |y| = R, R finite, clears the scatterer by 2%.

    The scatterer reaches the mesh's vertex radius and, for each support cell
    of V, its centre radius plus 0.87 spacings (a cell's half-diagonal).
    """
    r_scat = mesh.bounding_radius
    support = V.support() if V is not None else []
    if len(support):
        r_scat = max(r_scat, float(np.max(np.linalg.norm(V.grid.cell_center[support], axis=1)))
                     + 0.87 * float(np.max(V.grid.spacing)))
    if not r_scat * 1.02 < R < np.inf:
        raise ValueError(f"R = {R} does not enclose the scatterer (radius {r_scat:.3g})")


def farfield_kirchhoff(
    sol: DeltaSolution,
    R0: float,
    obs: np.ndarray,
    n_theta: int = 24,
    n_phi: int = 48,
) -> np.ndarray:
    """Far field from the flux integral over the sphere |y| = R0.

    The scattered field and its normal derivative, the analytic gradient of
    the source representation, come from one kernel pass at the nodes.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    check_enclosing_radius(R0, sol.mesh, sol.potential)
    sphere = make_sphere_grid(R0, n_theta, n_phi)
    y, ny, w = sphere.nodes, sphere.normals, sphere.weights
    k = sol.k

    psi_sc, dn_psi = _radial(_scattered(sol, y, grad=True), ny)

    phases = _joined(_cis(-k * np.einsum("ik,jk->ij", obs, y)))        # (n_obs, n_nodes)
    radial = np.einsum("ik,jk->ij", obs, ny)                            # x_hat . y_hat
    integrand = psi_sc[None, :] * (-1j * k * radial) * phases - phases * dn_psi[None, :]
    return matmul(integrand, w[:, None])[:, 0] / (4.0 * np.pi)


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
    # k and the angles are formatted once; each row formats only its value
    inc = [f"{_fmt(ff.k)},{_fmt(t)},{_fmt(p)}," for t, p in zip(*_angles(ff.incidence))]
    obs = [f"{_fmt(t)},{_fmt(p)}," for t, p in zip(*_angles(ff.observations))]
    with open(path, "w") as fh:
        fh.write("# META " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("k,inc_theta,inc_phi,obs_theta,obs_phi,re,im\n")
        for head, row in zip(inc, ff.values):
            fh.writelines(f"{head}{o}{_fmt(re)},{_fmt(im)}\n"
                          for o, re, im in zip(obs, row.real.tolist(), row.imag.tolist()))


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
