"""Row-chunk threads, the products and the in-place guarded LU of ``_dense``."""

import mmap
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltashell import _dense, boundary, farfield, volume
from deltashell._dense import GuardedLU, empty_mapped, map_chunks, matmul
from deltashell.boundary import DeltaSpec, DeltaSystem
from deltashell.kernels import plane_wave

from conftest import bump_potential


@pytest.fixture
def slice_counts(monkeypatch):
    """Slice counts of every ``map_chunks`` call the kernel modules make, with CHUNK small
    enough that the small test inputs split."""
    monkeypatch.setattr(_dense, "CHUNK", 2**15)
    counts = []

    def spy(body, slices):
        slices = list(slices)
        counts.append(len(slices))
        map_chunks(body, slices)

    for module in (boundary, farfield):
        monkeypatch.setattr(module, "map_chunks", spy)
    return counts


@pytest.fixture
def started(monkeypatch):
    """Threads started while the test runs."""
    threads = []
    start = threading.Thread.start

    def record(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record)
    return threads


@pytest.fixture(scope="module")
def sites(sphere_meshes, small_grid):
    """Every mapped site, by name: a function of no arguments."""
    mesh, grid = sphere_meshes[2], small_grid
    V = bump_potential(grid, 0.6)
    support = V.support()
    centers = grid.cell_center[support]
    eta = np.exp(1j * mesh.panel_centroid[:, 0])
    points = np.concatenate([centers, 1.7 * mesh.panel_centroid])
    off = points[~boundary.on_surface(points, mesh)]
    delta = DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 1.5))
    system = DeltaSystem(V, delta, 1.7)
    sols = system.solve_many([plane_wave(d) for d in np.eye(3)])
    return {
        "S": lambda: boundary.assemble_single_layer(mesh, 1.7),
        "DeltaSystem": lambda: DeltaSystem(V, delta, 1.7).kernel,
        "system_matrix": lambda: np.append(*boundary._system_matrix(system.kernel, system.weights, np.complex64)),
        "G": lambda: volume.assemble_volume_operator(grid, 1.7, cells=support),
        "layer_potential": lambda: boundary.layer_potential(points, mesh, eta, 1.7),
        "layer_potential_gradient": lambda: boundary.layer_potential_gradient(off, mesh, eta, 1.7),
        "S0": lambda: boundary.assemble_single_layer(mesh, 0.0),
        "static_layer_potential": lambda: boundary.layer_potential(points, mesh, eta.real, 0.0),
        "static_layer_potential_gradient": lambda: boundary.layer_potential_gradient(off, mesh, eta.real, 0.0),
        "volume_potential": lambda: volume.volume_potential(points, grid, V.values[support] * eta[0],
                                                            1.7, cells=support),
        # 128 directions over 944 sources: the last block of phase rows splits in two slices
        "farfield_source": lambda: farfield.farfield_source(sols, farfield.direction_grid(8, 16).normals),
        "eval_scattered_field": lambda: boundary.eval_scattered_field(sols[0], points),
        "eval_scattered_gradient": lambda: boundary.eval_scattered_gradient(sols[0], off),
    }


SITES = ["S", "DeltaSystem", "system_matrix", "G", "layer_potential", "layer_potential_gradient", "S0",
         "static_layer_potential", "static_layer_potential_gradient", "volume_potential", "farfield_source",
         "eval_scattered_field", "eval_scattered_gradient"]


class TestMapChunks:
    @pytest.mark.parametrize("site", SITES)
    def test_site_is_worker_invariant(self, sites, monkeypatch, slice_counts, site):
        # whole slices per worker: the split, and so every bit, is the same at 1 and 2 workers
        fn = sites[site]
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(_dense, "WORKERS", workers)
            slice_counts.clear()
            results.append(fn())
            assert slice_counts and slice_counts[-1] > 1
        assert np.array_equal(results[0], results[1])

    def test_one_worker_starts_no_thread(self, sphere_meshes, monkeypatch, slice_counts, started):
        mesh = sphere_meshes[2]
        monkeypatch.setattr(_dense, "WORKERS", 1)
        boundary.assemble_single_layer(mesh, 1.0)
        assert slice_counts[-1] > 1 and started == []
        monkeypatch.setattr(_dense, "WORKERS", 2)
        boundary.assemble_single_layer(mesh, 1.0)
        assert len(started) <= 1                    # the helper, unless an earlier map started it
        first = list(started)
        boundary.assemble_single_layer(mesh, 1.0)
        assert started == first                     # kept: a later map starts no thread

    def test_a_body_may_map(self, monkeypatch):
        # both outer slices are held at once, so one runs on the only helper; each inner map
        # runs on its own caller, and its helper task, never started, is cancelled, not waited for
        monkeypatch.setattr(_dense, "WORKERS", 2)
        hits, both = np.zeros((4, 6), dtype=int), threading.Barrier(2, timeout=60)

        def outer(rows):
            both.wait()

            def inner(cols):
                hits[rows, cols] += 1

            map_chunks(inner, [slice(lo, lo + 2) for lo in range(0, 6, 2)])

        caller = threading.Thread(target=map_chunks, args=(outer, [slice(0, 2), slice(2, 4)]), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and np.all(hits == 1)

    def test_one_slice_starts_no_thread(self, monkeypatch, started):
        monkeypatch.setattr(_dense, "WORKERS", 2)
        seen = []
        map_chunks(seen.append, [slice(0, 4)])
        assert seen == [slice(0, 4)] and started == []

    def test_helper_error_reaches_the_caller(self, sphere_meshes, monkeypatch, slice_counts):
        # once the caller holds a slice, the helper's first slice asks for the gradient on
        # Gamma; the caller finishes its slice after that has failed and takes no other
        mesh = sphere_meshes[2]
        monkeypatch.setattr(_dense, "WORKERS", 2)
        kernel_rows = boundary._kernel_rows
        caller_in, failed = threading.Event(), threading.Event()
        callers = []

        def block(x, sources, k, grad=False, out=None):
            callers.append(threading.current_thread())
            if threading.current_thread() is threading.main_thread():
                caller_in.set()
                assert failed.wait(timeout=60)
                return kernel_rows(x, sources, k, grad, out)
            assert caller_in.wait(timeout=60)
            try:
                return kernel_rows(mesh.panel_centroid[:len(x)], sources, k, grad, out)
            finally:
                failed.set()

        monkeypatch.setattr(boundary, "_kernel_rows", block)
        with pytest.raises(ValueError, match="layer gradient requested on the surface"):
            boundary.layer_potential_gradient(2.0 * mesh.panel_centroid, mesh, np.ones(mesh.n_panels), 1.0)
        assert slice_counts[-1] > 2
        assert len(callers) == 2 and callers[0] is not callers[1]

    def test_every_slice_taken_once_under_contention(self, monkeypatch):
        # more workers than cores and a short switch interval: a slice lost or taken twice
        # leaves a row of ``hits`` other than 1
        monkeypatch.setattr(_dense, "WORKERS", 6)
        hits = np.zeros(600, dtype=int)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def body(rows):
                hits[rows] += 1

            map_chunks(body, [slice(lo, lo + 3) for lo in range(0, len(hits), 3)])
        finally:
            sys.setswitchinterval(interval)
        assert np.all(hits == 1)


def _random(rng, shape, dtype, order="C"):
    a = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if dtype is complex else 0.0)
    return np.asarray(a, order=order)


class TestMatmul:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("cols", [1, 200])
    def test_matches_numpy_in_place(self, rng, dtype, order, cols):
        a, b = _random(rng, (300, 120), dtype, order), _random(rng, (120, cols), dtype, "F")
        out = np.empty((300, cols), dtype=dtype, order="F")
        got = matmul(a, b, out=out)
        assert np.shares_memory(got, out) and got.shape == (300, cols)
        ref = a @ b
        assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)
        assert np.array_equal(matmul(a, b), got)

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("cols", [1, 200])
    def test_does_not_copy_a(self, rng, order, cols):
        a, b = _random(rng, (500, 400), complex, order), _random(rng, (400, cols), complex, "F")
        out = np.empty((500, cols), dtype=complex, order="F")
        tracemalloc.start()
        try:
            matmul(a, b, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4

    @pytest.mark.parametrize("cols", [1, 3])
    def test_empty_inner_dimension_gives_zeros(self, cols):
        out = np.full((4, cols), np.nan + 0j, order="F")
        assert np.array_equal(matmul(np.zeros((4, 0), dtype=complex), np.zeros((0, cols), dtype=complex), out=out),
                              np.zeros((4, cols)))


def _mapping(a):
    """The object that owns a's memory."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.obj if isinstance(a, memoryview) else a.base
    return a


class TestEmptyMapped:
    @pytest.mark.parametrize("dtype", [float, np.complex64])
    def test_writable_c_array_in_a_mapping_of_its_own(self, dtype):
        a = empty_mapped((3, 5), dtype)
        assert a.shape == (3, 5) and a.dtype == dtype and a.flags.c_contiguous and a.flags.writeable
        assert isinstance(_mapping(a), mmap.mmap)
        a[...] = np.arange(15).reshape(3, 5)
        assert np.array_equal(a, np.arange(15).reshape(3, 5))

    def test_empty_shape(self):
        assert empty_mapped((0, 4), float).shape == (0, 4)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/smaps")
    def test_mapping_is_private(self):
        # a shared anonymous mapping is shmem, whose huge pages follow shmem_enabled, not the
        # madvise; smaps marks a private mapping "p" (Private_Dirty alone does not tell: a shmem
        # page mapped by one process counts as private too)
        a = empty_mapped((256, 1024), float)
        a[...] = 1.0
        mapping = None
        with open("/proc/self/smaps") as f:
            for line in f:
                key, *rest = line.split()
                if key.endswith(":"):
                    fields[key[:-1]] = rest[0]
                else:                          # a mapping's header: its address range, then its permissions
                    lo, hi = (int(v, 16) for v in key.split("-"))
                    fields = {"perms": rest[0]}
                    if lo <= a.ctypes.data < hi:
                        mapping = fields
        assert mapping["perms"] == "rw-p"
        assert int(mapping["Private_Dirty"]) >= a.nbytes // 1024 and int(mapping["Shared_Dirty"]) == 0

    def test_system_matrix_is_mapped(self, sphere_meshes):
        system = DeltaSystem(None, DeltaSpec(mesh=sphere_meshes[1], alpha=np.full(sphere_meshes[1].n_panels, 2.0)), 2.0)
        A, _ = boundary._system_matrix(system.kernel, system.weights, np.complex64)
        assert isinstance(_mapping(A), mmap.mmap) and isinstance(_mapping(system._factored()._lu), mmap.mmap)


class TestGuardedLU:
    def test_factors_a_fortran_matrix_in_place(self, rng):
        n = 40
        A = np.asfortranarray(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                              + 10.0 * np.eye(n))
        ref = A.copy()
        b = rng.standard_normal(n) + 0j
        lu = GuardedLU(A)
        assert np.shares_memory(lu._lu, A)
        assert_allclose(ref @ lu.solve(b), b, rtol=0, atol=1e-12)

    def test_single_precision_solve_scales_each_column(self, rng):
        # columns far outside the complex64 range are solved to complex64 accuracy
        n = 30
        A = rng.standard_normal((n, n)) + 10.0 * np.eye(n)
        lu = GuardedLU(A.astype(np.complex64))
        assert lu.dtype == np.complex64
        b = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) * np.array([1e-300, 1.0, 1e300])
        x = lu.solve(b)
        assert x.dtype == np.complex128
        ref = np.linalg.solve(A, b)
        assert np.all(np.max(np.abs(x - ref), axis=0) <= 1e-5 * np.max(np.abs(ref), axis=0))

    def test_factors_a_c_ordered_matrix_in_place_as_its_transpose(self, rng):
        A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)) + 10.0 * np.eye(30)
        ref = A.copy()
        b = rng.standard_normal(30) + 0j
        lu = GuardedLU(A)
        assert np.shares_memory(lu._lu, A) and lu._lu.flags.f_contiguous
        assert_allclose(ref @ lu.solve(b), b, rtol=0, atol=1e-12)
        own = 1.0 / (np.linalg.norm(ref, 1) * np.linalg.norm(np.linalg.inv(ref), 1))
        assert own * (1 - 1e-12) <= lu.rcond <= 3 * own                # gecon bounds A's 1-norm condition from below

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_system_matrix_carries_its_one_norm(self, small_system, dtype):
        # the column sums of |A| taken while A is written are its 1-norm, which the condition
        # estimate then reads instead of a LAPACK pass of its own; complex64 moduli round to 2^-24,
        # and cgecon's estimate is a float32 number
        A, anorm = boundary._system_matrix(small_system.kernel, small_system.weights, dtype)
        norm_tol, rcond_tol = (1e-6, 1e-5) if dtype == np.complex64 else (1e-12, 1e-12)
        ref = np.linalg.norm(A.astype(complex), 1)
        assert abs(anorm - ref) <= norm_tol * ref
        given, own = GuardedLU(A.copy(order="F"), anorm=anorm), GuardedLU(A.copy(order="F"))
        assert abs(given.rcond - own.rcond) <= rcond_tol * own.rcond

    def test_system_matrix_is_factored_in_place(self, sphere_meshes, monkeypatch):
        # DeltaSystem writes the complex64 A in C order and the LU overwrites it as A^T,
        # so a build makes no n x n array besides the kernel and A
        given = []

        def guarded(A, anorm=None, context="linear system"):
            given.append(A)
            return GuardedLU(A, anorm, context)

        monkeypatch.setattr(boundary, "GuardedLU", guarded)
        mesh = sphere_meshes[2]
        system = DeltaSystem(None, DeltaSpec(mesh=mesh, alpha=np.full(mesh.n_panels, 2.0)), 2.0)
        system._factored()
        assert np.shares_memory(system._lu._lu, given[0])
        assert not np.shares_memory(system._lu._lu, system.kernel)
        assert given[0].dtype == np.complex64 and given[0].flags.c_contiguous
