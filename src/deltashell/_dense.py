"""Guarded dense complex solves and products, and the row chunks every dense kernel block is filled in."""

from __future__ import annotations

import functools
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from scipy.linalg import get_blas_funcs, get_lapack_funcs

__all__ = ["ExceptionalFrequencyError", "GuardedLU", "empty_mapped", "map_chunks", "matmul", "row_chunks"]

RCOND_FLOOR = 1e-12
# entries per row chunk of a dense kernel block.  glibc keeps a chunk's freed temporaries in the
# arena of the thread that filled it: about 10 MB at 2**18, 34-60 MB at 2**20 (1280 panels).
CHUNK = 2**18
WORKERS = len(os.sched_getaffinity(0))  # threads that fill row chunks, the caller included


def row_chunks(n: int, row_entries: int) -> list[slice]:
    """Row slices covering range(n), each of max(1, CHUNK // row_entries) rows; ``row_entries``
    is the number of temporary entries one row costs, so each caller keeps its own budget."""
    rows = max(1, CHUNK // max(row_entries, 1))
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


@functools.cache
def _helpers(n: int) -> ThreadPoolExecutor:
    """n helper threads, kept from the first map that needs them: a thread started per map could start before the
    last one had handed glibc its malloc arena back, and each new arena kept about 10 MB of freed chunk temporaries."""
    return ThreadPoolExecutor(n)


def map_chunks(body, slices: list[slice]) -> None:
    """Call ``body(s)`` once for every slice s, on up to WORKERS threads.

    The caller and up to WORKERS - 1 kept helper threads take whole slices from one
    shared queue, so the split does not depend on the worker count; each
    body writes its own rows of its output.  numpy's ufuncs and ``einsum``
    release the interpreter lock, so the bodies run side by side; they make no
    BLAS call (``matmul``).  An exception in any body stops every thread from taking
    another slice and is raised here; with one worker or one slice the bodies run inline.
    A helper not yet started when the queue is empty is cancelled, so a body may itself map.
    """
    helpers = min(WORKERS, len(slices)) - 1
    if helpers <= 0:
        for s in slices:
            body(s)
        return
    queue, lock, failed = iter(slices), threading.Lock(), threading.Event()

    def take() -> None:
        while not failed.is_set():
            with lock:
                s = next(queue, None)
            if s is None:
                return
            try:
                body(s)
            except BaseException:
                failed.set()
                raise

    futures = [_helpers(WORKERS - 1).submit(take) for _ in range(helpers)]
    take()
    for f in futures:
        if not f.cancel():
            f.result()


def empty_mapped(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised C-ordered array in a private anonymous mapping of its own (a shared one is shmem, whose huge
    pages ``shmem_enabled`` rules, not the advice), whose pages go back to the system when it is freed.  It bypasses
    malloc: glibc raises its mmap threshold to each freed mapped block (up to 32 MB) and takes smaller blocks from its
    heap, where criterion 8's 21.5 MB level-3 system matrix found a hole or not by the order of earlier frees."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2-D a and b by scipy's OpenBLAS, which GuardedLU's LAPACK calls use: numpy's has a thread pool
    of its own, whose idle threads spin for about 0.1 s after a call and slow the other pool's, and a BLAS call
    in a row-chunk body would run its threads beside the helpers.  A C-ordered a is passed as its transpose, so
    it is not copied; a Fortran-ordered ``out`` of the product's dtype is written in place."""
    trans, a = (1, a.T) if a.flags.c_contiguous else (0, a)
    if b.shape[1] == 1 and len(b):     # gemv reads a once where gemm packs it; len(b) = 0 stays a gemm, which writes 0
        y = None if out is None else out[:, 0]
        return get_blas_funcs("gemv", (a, b))(1.0, a, b[:, 0], trans=trans, y=y, overwrite_y=y is not None)[:, None]
    return get_blas_funcs("gemm", (a, b))(1.0, a, b, trans_a=trans, c=out, overwrite_c=out is not None)


class ExceptionalFrequencyError(RuntimeError):
    """The discrete system is (numerically) singular at this wavenumber.

    Mirrors the finite exceptional set of the continuum problem; perturbing
    k slightly moves off it.
    """


class GuardedLU:
    """LU factorization with a 1-norm condition estimate, in the precision of A.

    A complex64 A is factored by the complex64 LAPACK routines, any other A
    by the complex128 ones; the factors keep that dtype (``self.dtype``).
    Factors in place: a Fortran-ordered A of that dtype is overwritten by its LU factors, a C-ordered
    one as A^T, its Fortran-ordered view, which ``solve`` reads transposed; any other A is copied first.
    ``anorm`` is A's 1-norm if the caller has it, else LAPACK's ``lange`` takes it (A^T's infinity norm).
    Raises ``ExceptionalFrequencyError`` when the factorization is exactly singular or the
    reciprocal condition estimate drops below ``RCOND_FLOOR`` (condition number above 1e12).
    """

    def __init__(self, A: np.ndarray, anorm: float | None = None, context: str = "linear system"):
        A = np.asarray(A)
        self._trans, norm = (1, "I") if A.flags.c_contiguous else (0, "1")   # A's 1-norm is A^T's infinity norm
        A = np.asfortranarray(A.T if self._trans else A, dtype=np.complex64 if A.dtype == np.complex64 else complex)
        getrf, gecon, self._getrs, lange = get_lapack_funcs(("getrf", "gecon", "getrs", "lange"), (A,))
        if anorm is None:
            anorm = lange(norm, A)
        lu, piv, info = getrf(A, overwrite_a=1)
        if info > 0:
            raise ExceptionalFrequencyError(
                f"{context}: exactly singular factorization; try perturbing k"
            )
        if info < 0:
            raise ValueError(f"{getrf.typecode}getrf failed with info={info}")
        rcond, info = gecon(lu, anorm, norm=norm)
        if info != 0:
            raise ValueError(f"{getrf.typecode}gecon failed with info={info}")
        if rcond < RCOND_FLOOR:
            raise ExceptionalFrequencyError(
                f"{context}: condition estimate {1.0 / max(rcond, 1e-300):.2e} exceeds 1e12 "
                "(discrete exceptional frequency); try perturbing k"
            )
        self._lu = lu
        self._piv = piv
        self.dtype = lu.dtype
        self.rcond = float(rcond)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b in complex128, for b of shape (n,) or (n, m).

        Each column of b is scaled by a power of two to a max-norm in
        [0.5, 1) before the cast to the factors' dtype and unscaled after, so
        that columns of any magnitude (exponentially growing CGO fields) neither
        overflow nor underflow in complex64; a power of two scales exactly.
        """
        b = np.asarray(b, dtype=complex)
        peak = np.max(np.abs(b), axis=0)
        scale = np.ldexp(1.0, np.frexp(np.where(peak > 0, peak, 1.0))[1])
        x, info = self._getrs(self._lu, self._piv, (b / scale).astype(self.dtype, copy=False), trans=self._trans)
        if info != 0:
            raise ValueError(f"{self._getrs.typecode}getrs failed with info={info}")
        return x.astype(complex, copy=False) * scale
