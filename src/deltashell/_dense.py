"""Guarded dense complex solves shared by the volume and boundary systems."""

from __future__ import annotations

import numpy as np

from scipy.linalg import lapack

__all__ = ["ExceptionalFrequencyError", "GuardedLU"]

RCOND_FLOOR = 1e-12


class ExceptionalFrequencyError(RuntimeError):
    """The discrete system is (numerically) singular at this wavenumber.

    Mirrors the finite exceptional set of the continuum problem; perturbing
    k slightly moves off it.
    """


class GuardedLU:
    """LU factorization with a 1-norm condition estimate.

    Raises ``ExceptionalFrequencyError`` when the reciprocal condition
    estimate drops below ``RCOND_FLOOR`` (condition number above 1e12).
    """

    def __init__(self, A: np.ndarray, context: str = "linear system"):
        A = np.ascontiguousarray(A, dtype=complex)
        anorm = np.linalg.norm(A, 1)
        lu, piv, info = lapack.zgetrf(A)
        if info > 0:
            raise ExceptionalFrequencyError(
                f"{context}: exactly singular factorization; try perturbing k"
            )
        if info < 0:
            raise ValueError(f"zgetrf failed with info={info}")
        rcond, info = lapack.zgecon(lu, anorm)
        if info != 0:
            raise ValueError(f"zgecon failed with info={info}")
        if rcond < RCOND_FLOOR:
            raise ExceptionalFrequencyError(
                f"{context}: condition estimate {1.0 / max(rcond, 1e-300):.2e} exceeds 1e12 "
                "(discrete exceptional frequency); try perturbing k"
            )
        self._lu = lu
        self._piv = piv
        self.rcond = float(rcond)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=complex)
        x, info = lapack.zgetrs(self._lu, self._piv, b)
        if info != 0:
            raise ValueError(f"zgetrs failed with info={info}")
        return x

