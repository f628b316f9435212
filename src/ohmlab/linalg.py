"""Dense symmetric linear algebra on LAPACK.

Two primitives back the general-graph queries (spectra, resistances, metric
checks): a full symmetric eigendecomposition (``dsyevr``) and a Cholesky
factorization and solve (``dpotrf``/``dpotrs``) for symmetric
positive-definite systems. They call scipy's f2py LAPACK wrappers
directly; ``scipy.linalg.solve_triangular`` would wake a BLAS worker thread
even for 2x2 systems. Neither judges its accuracy; the resistance module
checks Foster's identity.

Each LAPACK call runs with scipy's OpenBLAS held at one thread, and the
thread count it had is restored afterwards, also when the call raises. From
n = 40 (``dpotrs`` with n - 1 right-hand sides) and n = 80 (``dsyevr``) the
library otherwise hands work to its worker thread, which then spins after the
call returns and keeps a second core busy: a loop of these calls at n = 80
took 1.9-2.0 CPU seconds per wall second, and 1.1 with the scope (2-core
Xeon). The scope costs about a microsecond per call. A scipy call that
another Python thread makes while an ohmlab call is inside the scope runs on
one thread as well. Where no OpenBLAS thread control is found behind scipy's
LAPACK (another BLAS, another platform), the calls run unscoped.

The three routines live in one extension module, ``scipy.linalg._flapack``,
which :func:`_lapack` loads on first use. It imports the top-level ``scipy``
package, for scipy's own platform and library set-up (about 17 ms), and loads
the extension from ``scipy/linalg/`` by file name, without running the
``scipy.linalg`` package, whose import takes about 0.29 s and 24 MiB of peak
memory (2-core Xeon), longer than a whole ``verify`` run. The module is
registered under its own name, so ``scipy.linalg``, imported before or after,
shares it (``scipy.linalg.lapack.dsyevr`` is the same object). The cycle paths
(theorem check, figures, search) use numpy alone, so they load neither.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np


def _openblas_threads(extension):
    """The (get, set) thread-count functions of the OpenBLAS behind the loaded
    LAPACK ``extension`` module, or None.

    The symbol lookup on the already loaded extension searches the libraries
    it was linked against, so it finds the OpenBLAS its calls run on and not
    numpy's, which exports the same names with a ``64_`` suffix.
    """
    try:
        library = ctypes.CDLL(extension.__file__, mode=getattr(os, "RTLD_NOLOAD", 0))
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        try:
            get = getattr(library, f"{prefix}_get_num_threads")
            set_ = getattr(library, f"{prefix}_set_num_threads")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneThread:
    """Holds a BLAS at one thread while any caller is inside; the last to leave
    restores the count the first one found."""

    def __init__(self, get, set_):
        self._get, self._set = get, set_
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self._inside == 0:
                self._saved = self._get()
                self._set(1)
            self._inside += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                self._set(self._saved)


#: The extension module holding ``dsyevr``, ``dpotrf`` and ``dpotrs``.
_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _lapack():
    """scipy's LAPACK extension module and the scope that runs its calls on one
    BLAS thread, both made on the first call.

    The extension is taken from ``sys.modules`` when it is loaded already, and
    otherwise loaded from ``scipy/linalg/`` with the file-name suffixes of this
    interpreter. A missing file raises ``ImportError`` naming that directory.
    """
    import scipy

    extension = sys.modules.get(_FLAPACK)
    if extension is None:
        directory = os.path.join(scipy.__path__[0], "linalg")
        finder = importlib.machinery.FileFinder(
            directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_FLAPACK)
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}", name=_FLAPACK)
        extension = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(extension)
        sys.modules[_FLAPACK] = extension
    threads = _openblas_threads(extension)
    return extension, _OneThread(*threads) if threads else contextlib.nullcontext()


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
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        # the midpoint lo + (hi - lo)/2 of a and a' is symmetric bit for bit, a
        # no-op on symmetric input and, unlike (a + a')/2, cannot overflow on
        # entries of one sign; opposite-signed ones may, and fail the check
        with np.errstate(over="ignore", invalid="ignore"):
            lo = np.minimum(a, a.T)
            a = lo + (np.maximum(a, a.T) - lo) / 2.0
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", _frozen(a))

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
    lapack, one_thread = _lapack()
    with one_thread:
        values, vectors, _, _, info = lapack.dsyevr(a, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info = {info}")
    residuals = a @ vectors - vectors * values
    # each column's norm is taken at the power of two that brings its largest
    # entry into [1/2, 1): exact, and the squares cannot overflow
    _, exponents = np.frexp(np.max(np.abs(residuals), axis=0))
    norms = np.ldexp(np.linalg.norm(np.ldexp(residuals, -exponents), axis=0), exponents)
    max_residual = float(np.max(norms))
    return Spectrum(eigenvalues=values, eigenvectors=vectors, max_residual=max_residual)


def cholesky_lower(matrix) -> np.ndarray:
    """Lower-triangular Cholesky factor L with A = L L', no pivoting.

    Raises :class:`NotPositiveDefiniteError` at the first non-positive pivot,
    reporting its (0-based) index and value.
    """
    sym = matrix if isinstance(matrix, SymmetricMatrix) else SymmetricMatrix(matrix)
    lapack, one_thread = _lapack()
    with one_thread:
        lower, info = lapack.dpotrf(sym.entries, lower=1)
    if info > 0:
        # dpotrf stops at the failing pivot and leaves its value on the diagonal
        k = info - 1
        raise NotPositiveDefiniteError(index=k, value=float(lower[k, k]))
    if info < 0:
        raise np.linalg.LinAlgError(f"LAPACK dpotrf failed with info = {info}")
    return lower


def solve_spd(matrix, rhs) -> np.ndarray:
    """Solve A X = B for symmetric positive-definite A via Cholesky.

    ``rhs`` may be a vector or a matrix of right-hand-side columns. A
    non-positive pivot raises :class:`NotPositiveDefiniteError`; how accurate
    the solution is, is for the caller to judge.
    """
    lower = cholesky_lower(matrix)
    rhs = np.asarray(rhs, dtype=float)
    lapack, one_thread = _lapack()
    with one_thread:
        x, info = lapack.dpotrs(lower, rhs, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dpotrs failed with info = {info}")
    return x
