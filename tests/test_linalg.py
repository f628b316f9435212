"""LAPACK eigendecomposition and Cholesky SPD solves."""

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
from ohmlab.cli import main

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

    def test_lapack_failure_is_loud(self, monkeypatch, tmp_path):
        def failing_dsyevr(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.eye(n), n, np.zeros(2 * n, dtype=np.int32), 1

        # ohmlab.linalg looks the wrapper up on the scipy module at each call
        monkeypatch.setattr("scipy.linalg.lapack.dsyevr", failing_dsyevr)
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

    def test_pivot_ratio_returned(self):
        a = np.diag([1e6, 1.0])
        x, ratio = solve_spd(a, np.eye(2), return_pivot_ratio=True)
        assert ratio == pytest.approx(1e6)

    def test_lapack_failure_is_loud(self, monkeypatch, tmp_path):
        def failing_dpotrf(a, **kwargs):
            return np.array(a), -1

        monkeypatch.setattr("scipy.linalg.lapack.dpotrf", failing_dpotrf)
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
