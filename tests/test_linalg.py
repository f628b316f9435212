"""LAPACK eigendecomposition and Cholesky SPD solves."""

import contextlib
import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ohmlab import (
    NotPositiveDefiniteError,
    SymmetricMatrix,
    build_graph,
    cholesky_lower,
    cycle,
    dump_graph,
    eigen_sym,
    laplacian,
    solve_spd,
)
from ohmlab import linalg
from ohmlab.cli import main
from ohmlab.resistance import _eliminate

from conftest import random_connected_graph


def char_poly_roots(h: np.ndarray) -> np.ndarray:
    """Independent 3x3 eigenvalue oracle: roots of the characteristic polynomial.

    Coefficients come from trace, principal-minor sum, and determinant; roots
    from the companion matrix, nothing shared with the symmetric eigensolver.
    """
    tr = float(np.trace(h))
    minors = sum(
        float(np.linalg.det(h[np.ix_([i, j], [i, j])]))
        for i in range(3) for j in range(i + 1, 3)
    )
    det = float(np.linalg.det(h))
    return np.sort(np.roots([1.0, -tr, minors, -det]).real)


class TestSymmetricMatrix:
    def test_symmetrizes_input(self):
        m = SymmetricMatrix(np.array([[1.0, 2.0], [4.0, 3.0]]))
        assert np.array_equal(m.entries, np.array([[1.0, 3.0], [3.0, 3.0]]))

    def test_symmetric_input_is_untouched(self):
        a = np.array([[1.0, 0.1], [0.1, 2.0]])
        assert np.array_equal(SymmetricMatrix(a).entries, a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [
        [[1.0, 1e308], [-1e308, 1.0]],  # the difference of the pair overflows
        [[np.inf, 0.0], [0.0, 1.0]],  # inf - inf in the midpoint is NaN
    ])
    def test_rejects_overflow_and_non_finite_without_warnings(self, a):
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(np.array(a))

    def test_keeps_entries_near_the_float_limit(self):
        # symmetrizing by (a + a')/2 would overflow 1e308 to inf
        a = np.diag([1e308, 1.0])
        assert np.array_equal(SymmetricMatrix(a).entries, a)
        assert np.array_equal(eigen_sym(a).eigenvalues, [1.0, 1e308])

    def test_same_signed_pair_near_the_float_limit(self):
        m = SymmetricMatrix(np.array([[1.0, 1e308], [1.5e308, 1.0]]))
        assert m.entries[0, 1] == m.entries[1, 0] == 1.25e308

    def test_symmetric_bit_for_bit_between_the_pair(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            a = rng.standard_normal((n, n)) * np.exp(rng.uniform(-40.0, 40.0, size=(n, n)))
            s = SymmetricMatrix(a).entries
            assert np.array_equal(s, s.T)
            assert np.all(np.minimum(a, a.T) <= s) and np.all(s <= np.maximum(a, a.T))

    def test_entries_read_only(self):
        m = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestEigenSym:
    def test_unit_three_cycle(self):
        spectrum = eigen_sym(laplacian(cycle(3, [1.0, 1.0, 1.0])))
        assert np.allclose(spectrum.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
        assert spectrum.max_residual <= 1e-12

    def test_two_equal_family_point(self):
        # closed forms 3b/(2b-1) and 3b at b = 3/2 give 9/4 and 9/2;
        # cross-checked against the characteristic-polynomial oracle
        h = laplacian(build_graph(3, [(0, 1, 0.375), (0, 2, 1.5), (1, 2, 1.5)]))
        spectrum = eigen_sym(h)
        assert np.allclose(spectrum.eigenvalues, [0.0, 2.25, 4.5], atol=1e-12)
        assert np.allclose(char_poly_roots(h.entries), [0.0, 2.25, 4.5], atol=1e-9)

    def test_diagonal_matrix(self):
        spectrum = eigen_sym(np.diag([5.0, 2.0, 7.0]))
        assert np.array_equal(spectrum.eigenvalues, [2.0, 5.0, 7.0])
        assert np.array_equal(np.abs(spectrum.eigenvectors),
                              np.eye(3)[:, [1, 0, 2]])

    def test_dim_one(self):
        spectrum = eigen_sym(np.array([[4.0]]))
        assert spectrum.eigenvalues[0] == 4.0
        assert spectrum.eigenvectors[0, 0] == 1.0

    @pytest.mark.filterwarnings("error")
    def test_residual_past_the_square_range_is_finite(self):
        # residual entries reach ~1e285, whose squares overflow a float
        a = laplacian(cycle(4, [1.0, 1e300, 1.0, 1e300])).entries
        spectrum = eigen_sym(a)
        v = spectrum.eigenvectors
        residuals = (a @ v - v * spectrum.eigenvalues) * 2.0 ** -900
        assert spectrum.max_residual == pytest.approx(
            np.max(np.linalg.norm(residuals, axis=0)) * 2.0 ** 900, rel=1e-15)

    def test_lapack_failure_is_loud(self, monkeypatch, tmp_path):
        def failing_dsyevr(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.eye(n), n, np.zeros(2 * n, dtype=np.int32), 1

        # ohmlab.linalg looks the wrapper up on the extension module at each call
        monkeypatch.setattr(linalg._lapack()[0], "dsyevr", failing_dsyevr)
        with pytest.raises(np.linalg.LinAlgError, match="dsyevr"):
            eigen_sym(np.eye(2))
        path = tmp_path / "g.txt"
        path.write_text(dump_graph(cycle(3, [1.0, 2.0, 3.0])))
        assert main(["spectrum", str(path)]) == 4

    @given(arrays(np.float64, (6, 6), elements=st.floats(-1, 1, width=64)))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_property(self, raw):
        matrix = SymmetricMatrix(raw)
        spectrum = eigen_sym(matrix)
        v = spectrum.eigenvectors
        rebuilt = v @ np.diag(spectrum.eigenvalues) @ v.T
        scale = max(np.linalg.norm(matrix.entries, "fro"), 1e-12)
        assert np.linalg.norm(rebuilt - matrix.entries, "fro") <= 1e-9 * scale
        assert np.allclose(v.T @ v, np.eye(6), atol=1e-10)
        assert np.all(np.diff(spectrum.eigenvalues) >= 0.0)

    def test_reconstruction_random_dims(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            dim = int(rng.integers(1, 13))
            matrix = SymmetricMatrix(rng.uniform(-1, 1, size=(dim, dim)))
            spectrum = eigen_sym(matrix)
            v = spectrum.eigenvectors
            rebuilt = v @ np.diag(spectrum.eigenvalues) @ v.T
            scale = max(np.linalg.norm(matrix.entries, "fro"), 1e-12)
            assert np.linalg.norm(rebuilt - matrix.entries, "fro") <= 1e-9 * scale
            residuals = matrix.entries @ v - v * spectrum.eigenvalues
            assert np.max(np.linalg.norm(residuals, axis=0)) <= spectrum.max_residual + 1e-15

    def test_laplacian_spectrum_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 11)))
            h = laplacian(g)
            spectrum = eigen_sym(h)
            assert spectrum.eigenvalues[0] >= -1e-10
            assert spectrum.eigenvalues[0] <= 1e-10
            ones = np.ones(g.n) / np.sqrt(g.n)
            assert abs(ones @ (h.entries @ ones)) <= 1e-12 * np.max(np.diag(h.entries))

    def test_zero_multiplicity_counts_components(self):
        parts = {
            1: build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 1.0)]),
            2: build_graph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 2.0)]),
            3: build_graph(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]),
        }
        for components, g in parts.items():
            values = eigen_sym(laplacian(g)).eigenvalues
            assert int(np.sum(np.abs(values) < 1e-8)) == components

    def test_lapack_cross_check(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            matrix = SymmetricMatrix(rng.normal(size=(8, 8)))
            mine = eigen_sym(matrix).eigenvalues
            theirs = np.linalg.eigvalsh(matrix.entries)
            assert np.allclose(mine, theirs, atol=1e-10)

    def test_mpmath_oracle_on_random_laplacians(self):
        # 50-digit eigenvalues of a Laplacian assembled in mpmath from the same
        # edges: shares no arithmetic with LAPACK; conductance ratios up to 1e4
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 13)))
            with mpmath.workdps(50):
                h = mpmath.zeros(g.n)
                for i, j, c in g.edges:
                    h[i, j] -= c
                    h[j, i] -= c
                    h[i, i] += c
                    h[j, j] += c
                theirs = np.array([float(x) for x in sorted(mpmath.eigsy(h, eigvals_only=True))])
            mine = eigen_sym(laplacian(g)).eigenvalues
            assert np.max(np.abs(mine - theirs)) <= 1e-12 * theirs[-1]


class TestSolveSpd:
    def test_scalar_system(self):
        assert np.allclose(solve_spd(np.array([[2.0]]), np.array([[4.0]])), [[2.0]])

    def test_harmonic_extension_midpoint(self):
        # grounding the unit 3-cycle at v1 and pinning v0 = 1: the eliminated
        # block is the 1x1 system 2 f(v2) = 1, so f(v2) = 1/2 by hand
        l_block = np.array([[2.0]])
        rhs = np.array([1.0])
        assert solve_spd(l_block, rhs)[0] == pytest.approx(0.5, abs=1e-15)

    def test_indefinite_matrix_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError, match="pivot 2") as excinfo:
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))
        assert excinfo.value.index == 1
        assert excinfo.value.value == pytest.approx(-3.0)

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            dim = int(rng.integers(1, 12))
            g = rng.normal(size=(dim, dim))
            a = g.T @ g + np.eye(dim)
            b = rng.normal(size=(dim, max(1, dim // 2)))
            x = solve_spd(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_lapack_failure_is_loud(self, monkeypatch, tmp_path):
        def failing_dpotrf(a, **kwargs):
            return np.array(a), -1

        monkeypatch.setattr(linalg._lapack()[0], "dpotrf", failing_dpotrf)
        with pytest.raises(np.linalg.LinAlgError, match="dpotrf"):
            solve_spd(np.eye(2), np.eye(2))
        path = tmp_path / "g.txt"
        path.write_text(dump_graph(cycle(3, [1.0, 2.0, 3.0])))
        assert main(["rho", str(path)]) == 4

    def test_cholesky_factor_shape(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = cholesky_lower(a)
        assert np.allclose(lower @ lower.T, a)
        assert lower[0, 1] == 0.0


def laplacian_80() -> np.ndarray:
    return laplacian(random_connected_graph(np.random.default_rng(80), 80)).entries


@pytest.fixture
def blas_threads():
    """(get, set) of the OpenBLAS thread count behind scipy's LAPACK, set to 2
    for the test and restored after it; skips where no such control exists."""
    threads = linalg._openblas_threads(linalg._lapack()[0])
    if threads is None:
        pytest.skip("no OpenBLAS thread control behind scipy's LAPACK")
    get, set_ = threads
    original = get()
    set_(2)
    yield threads
    set_(original)


def watch_thread_count(monkeypatch, name, get):
    """Wrap ``<name>`` on the LAPACK extension module; the returned list
    collects the thread count at each call."""
    extension = linalg._lapack()[0]
    original = getattr(extension, name)
    seen = []

    def watched(*args, **kwargs):
        seen.append(get())
        return original(*args, **kwargs)

    monkeypatch.setattr(extension, name, watched)
    return seen


class TestOneBlasThread:
    @pytest.mark.parametrize("name, call", [
        ("dsyevr", eigen_sym),
        ("dpotrf", lambda a: cholesky_lower(a[1:, 1:])),
        ("dpotrs", lambda a: solve_spd(a[1:, 1:], np.eye(79))),
    ])
    def test_call_runs_on_one_thread_and_restores_the_count(self, monkeypatch, blas_threads, name, call):
        get, _ = blas_threads
        before = get()
        seen = watch_thread_count(monkeypatch, name, get)
        call(laplacian_80())
        assert seen == [1]
        assert get() == before

    def test_count_restored_after_not_positive_definite(self, blas_threads):
        get, _ = blas_threads
        before = get()
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(-laplacian_80()[1:, 1:], np.eye(79))
        assert get() == before

    def test_count_restored_when_the_call_raises(self, monkeypatch, blas_threads):
        def broken_dsyevr(a, **kwargs):
            raise ValueError("broken wrapper")

        get, _ = blas_threads
        before = get()
        monkeypatch.setattr(linalg._lapack()[0], "dsyevr", broken_dsyevr)
        with pytest.raises(ValueError, match="broken wrapper"):
            eigen_sym(np.eye(2))
        assert get() == before

    def test_results_identical_without_thread_control(self, monkeypatch):
        a = laplacian_80()

        def results():
            spectrum = eigen_sym(a)
            return (spectrum.eigenvalues, spectrum.eigenvectors, spectrum.max_residual,
                    cholesky_lower(a[1:, 1:]), solve_spd(a[1:, 1:], np.eye(79)))

        scoped = results()
        monkeypatch.setattr(linalg, "_openblas_threads", lambda lapack: None)
        linalg._lapack.cache_clear()
        try:
            assert isinstance(linalg._lapack()[1], contextlib.nullcontext)
            unscoped = results()
        finally:
            # the next caller probes the library again, once the patch is undone
            linalg._lapack.cache_clear()
        for mine, theirs in zip(scoped, unscoped):
            assert np.array_equal(mine, theirs)

    def test_worker_thread_stays_idle(self, blas_threads):
        # the worker spun after dpotrs with 79 right-hand sides and after
        # dsyevr at n = 80: 1.98 CPU seconds per wall second, unscoped
        g = random_connected_graph(np.random.default_rng(81), 80)
        h = laplacian(g)
        _eliminate(g), eigen_sym(h)
        wall, cpu = time.perf_counter(), time.process_time()
        while time.perf_counter() - wall < 0.5:
            _eliminate(g), eigen_sym(h)
        assert (time.process_time() - cpu) / (time.perf_counter() - wall) < 1.5

    def test_concurrent_callers_share_one_scope(self, monkeypatch, blas_threads):
        # a caller that saved another's count of 1 and restored it last would
        # leave the library at one thread, or run a call on two
        get, _ = blas_threads
        before = get()
        seen = watch_thread_count(monkeypatch, "dsyevr", get)
        a = laplacian_80()[:6, :6]
        failures = []

        def work():
            try:
                deadline = time.perf_counter() + 0.3
                while time.perf_counter() < deadline:
                    eigen_sym(a)
            except Exception as exc:  # reported below, on the test's thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        assert seen and set(seen) == {1}
        assert get() == before


def run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter with ohmlab on its path; the JSON
    object it prints last."""
    env = dict(os.environ)
    source = os.path.dirname(os.path.dirname(linalg.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                            env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(result.stdout.splitlines()[-1])


class TestExtensionLoad:
    """``_lapack`` loads scipy's ``_flapack`` extension without ``scipy.linalg``."""

    def test_later_scipy_linalg_shares_the_loaded_extension(self, tmp_path):
        report = run_fresh("""
            import json, sys
            from ohmlab import cycle, dump_graph, linalg
            from ohmlab.cli import main

            graph = sys.argv[1] + "/c3.txt"
            with open(graph, "w") as handle:
                handle.write(dump_graph(cycle(3, [1.0, 2.0, 3.0])))
            code = main(["spectrum", graph])
            loaded = "scipy.linalg" in sys.modules
            import scipy.linalg
            extension = linalg._lapack()[0]
            print(json.dumps({
                "code": code,
                "scipy_linalg_before": loaded,
                "same_dsyevr": scipy.linalg.lapack.dsyevr is extension.dsyevr,
                "same_module": scipy.linalg.lapack._flapack is extension,
            }))
        """, str(tmp_path))
        assert report == {"code": 0, "scipy_linalg_before": False, "same_dsyevr": True, "same_module": True}

    def test_reuses_an_extension_scipy_linalg_loaded(self, tmp_path):
        report = run_fresh("""
            import json, sys
            import scipy.linalg
            from ohmlab import linalg

            # nothing left to load from: only the loaded module can serve
            scipy.__path__ = [sys.argv[1]]
            extension = linalg._lapack()[0]
            print(json.dumps({
                "same_module": extension is scipy.linalg.lapack._flapack,
                "same_dsyevr": extension.dsyevr is scipy.linalg.lapack.dsyevr,
            }))
        """, str(tmp_path))
        assert report == {"same_module": True, "same_dsyevr": True}

    def test_missing_extension_names_the_directory(self, tmp_path):
        report = run_fresh("""
            import json, sys
            import scipy
            from ohmlab import linalg

            scipy.__path__ = [sys.argv[1]]
            try:
                linalg._lapack()
            except ImportError as exc:
                print(json.dumps({"message": str(exc), "name": exc.name}))
        """, str(tmp_path))
        assert os.path.join(str(tmp_path), "linalg") in report["message"]
        assert report["name"] == "scipy.linalg._flapack"

    def test_thread_scope_finds_the_openblas(self):
        # where this fails, TestOneBlasThread skips instead of running
        assert isinstance(linalg._lapack()[1], linalg._OneThread)
