"""Dense symmetric linear algebra on LAPACK.

Two primitives back the general-graph queries (spectra, resistances, metric
checks): a full symmetric eigendecomposition (``dsyevr``) and a Cholesky
factorization and solve (``dpotrf``/``dpotrs``) for symmetric
positive-definite systems. They call the ``scipy.linalg.lapack`` wrappers
directly: on the small matrices handled here these run in the calling thread,
while ``scipy.linalg.solve_triangular`` wakes a BLAS worker thread even for
2x2 systems.

The wrappers are imported on first use, by :func:`_lapack`. Importing
``scipy.linalg`` takes about a quarter of a second (2-core Xeon), longer than
a whole ``verify`` run, and the cycle paths (theorem check, figures, search)
use numpy alone, so they never pay for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@functools.cache
def _lapack():
    """The ``scipy.linalg.lapack`` module, imported on the first call."""
    from scipy.linalg import lapack

    return lapack


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky hit a non-positive pivot; the matrix is not positive definite."""

    def __init__(self, index: int, value: float):
        super().__init__(
            f"matrix is not positive definite: pivot {index + 1} is {value:.6e}"
        )
        self.index = index
        self.value = value


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric matrix; the constructor symmetrizes its input."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        # (a + a')/2 is a bit-exact no-op when a is already symmetric
        object.__setattr__(self, "entries", _frozen((a + a.T) / 2.0))

    @classmethod
    def _trusted(cls, a: np.ndarray) -> SymmetricMatrix:
        """Wrap a square float array its caller built exactly symmetric and owns.

        Skips the copy and the symmetrization but keeps the finiteness check,
        since finite entries can still sum to infinity. The array is frozen.
        """
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", _frozen(a))
        return matrix

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues, orthonormal eigenvector columns, residual bound.

    ``max_residual`` bounds ``||A v_i - lambda_i v_i||_2`` over all pairs.
    Degenerate eigenvalues come with an arbitrary orthonormal basis of the
    eigenspace; callers must not rely on a particular basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    max_residual: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _frozen(np.asarray(self.eigenvectors, dtype=float)))


def eigen_sym(matrix) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``dsyevr``.

    Eigenpairs are returned ascending. A non-zero LAPACK ``info`` raises
    :class:`numpy.linalg.LinAlgError`.
    """
    sym = matrix if isinstance(matrix, SymmetricMatrix) else SymmetricMatrix(matrix)
    a = sym.entries
    values, vectors, _, _, info = _lapack().dsyevr(a, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info = {info}")
    residuals = a @ vectors - vectors * values
    max_residual = float(np.max(np.linalg.norm(residuals, axis=0)))
    return Spectrum(eigenvalues=values, eigenvectors=vectors, max_residual=max_residual)


def cholesky_lower(matrix) -> np.ndarray:
    """Lower-triangular Cholesky factor L with A = L L', no pivoting.

    Raises :class:`NotPositiveDefiniteError` at the first non-positive pivot,
    reporting its (0-based) index and value.
    """
    sym = matrix if isinstance(matrix, SymmetricMatrix) else SymmetricMatrix(matrix)
    lower, info = _lapack().dpotrf(sym.entries, lower=1)
    if info > 0:
        # dpotrf stops at the failing pivot and leaves its value on the diagonal
        k = info - 1
        raise NotPositiveDefiniteError(index=k, value=float(lower[k, k]))
    if info < 0:
        raise np.linalg.LinAlgError(f"LAPACK dpotrf failed with info = {info}")
    return lower


def solve_spd(matrix, rhs, return_pivot_ratio: bool = False):
    """Solve A X = B for symmetric positive-definite A via Cholesky.

    ``rhs`` may be a vector or a matrix of right-hand-side columns. With
    ``return_pivot_ratio=True`` also returns max(pivot)/min(pivot) of the
    factorization, a cheap conditioning indicator.
    """
    lower = cholesky_lower(matrix)
    x, info = _lapack().dpotrs(lower, np.asarray(rhs, dtype=float), lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dpotrs failed with info = {info}")
    if return_pivot_ratio:
        d = np.diag(lower)
        ratio = float((d.max() / d.min()) ** 2)
        return x, ratio
    return x
