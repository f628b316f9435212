"""Reference values computed apart from ohmlab.

Nothing here imports ohmlab. Laplacians are assembled from edge lists by this
module, spectra come from ``numpy.linalg.eigvalsh`` (or ``mpmath.eigsy`` for
the search's cycles), resistance distances from ``networkx.resistance_distance``,
and the series-parallel and 3-cycle closed forms are evaluated in ``mpmath``
at ``DIGITS`` significant digits.
"""

from __future__ import annotations

import mpmath
import networkx as nx
import numpy as np

DIGITS = 30


def laplacian_matrix(n: int, edges) -> np.ndarray:
    """Dense weighted Laplacian of ``(i, j, conductance)`` edges."""
    h = np.zeros((n, n))
    for i, j, c in edges:
        h[i, j] -= c
        h[j, i] -= c
        h[i, i] += c
        h[j, j] += c
    return h


def eigenvalues(n: int, edges) -> np.ndarray:
    """Ascending Laplacian eigenvalues."""
    return np.linalg.eigvalsh(laplacian_matrix(n, edges))


def cycle_edges(conductances) -> list[tuple[int, int, float]]:
    """Edges of the n-cycle whose edge k joins k and k+1 (mod n)."""
    n = len(conductances)
    return [(k, (k + 1) % n, float(c)) for k, c in enumerate(conductances)]


def cycle_rho(conductances) -> float:
    """Global resistance of a cycle: with r_e = 1/c_e and R = sum r_e, R - sum(r_e^2)/R."""
    with mpmath.workdps(DIGITS):
        r = [1 / mpmath.mpf(float(c)) for c in conductances]
        total = mpmath.fsum(r)
        return float(total - mpmath.fsum(x * x for x in r) / total)


def three_cycle_spectrum(a: float, b: float, c: float) -> tuple[float, float, float]:
    """(rho, lambda_1, lambda_2) of a 3-cycle.

    With s = a+b+c and q = ab+bc+ca the positive eigenvalues are
    s -/+ sqrt(s^2 - 3q) and rho = 2s/q.
    """
    with mpmath.workdps(DIGITS):
        a, b, c = (mpmath.mpf(float(x)) for x in (a, b, c))
        s = a + b + c
        q = a * b + b * c + c * a
        d = mpmath.sqrt(s * s - 3 * q)
        return float(2 * s / q), float(s - d), float(s + d)


def cycle_products(conductances) -> tuple[float, float]:
    """(lambda_1 rho, lambda_max rho) of a weighted cycle, all in mpmath.

    The search reaches conductance ratios of 1e9 and more, where a float64
    Laplacian already loses lambda_1 to the rounding of its diagonal sums, so
    the matrix is assembled and solved at ``DIGITS`` digits.
    """
    n = len(conductances)
    with mpmath.workdps(DIGITS):
        c = [mpmath.mpf(float(x)) for x in conductances]
        h = mpmath.zeros(n, n)
        for k in range(n):
            j = (k + 1) % n
            h[k, j] -= c[k]
            h[j, k] -= c[k]
            h[k, k] += c[k]
            h[j, j] += c[k]
        values = sorted(mpmath.eigsy(h, eigvals_only=True))
        r = [1 / x for x in c]
        total = mpmath.fsum(r)
        rho = total - mpmath.fsum(x * x for x in r) / total
        return float(values[1] * rho), float(values[-1] * rho)


def unit_cycle_products(n: int) -> tuple[float, float]:
    """(lambda_1 rho, lambda_max rho) of the unit n-cycle, whose rho is n - 1."""
    with mpmath.workdps(DIGITS):
        lam1 = 2 - 2 * mpmath.cos(2 * mpmath.pi / n)
        lam_max = 2 - 2 * mpmath.cos(2 * mpmath.pi * (n // 2) / n)
        return float(lam1 * (n - 1)), float(lam_max * (n - 1))


def two_equal_eigenvalues(b: float) -> tuple[float, float]:
    """Ascending positive eigenvalues of the 3-cycle (b(2-b)/(2b-1), b, b): 3b/(2b-1) and 3b."""
    with mpmath.workdps(DIGITS):
        b = mpmath.mpf(float(b))
        return tuple(sorted((float(3 * b / (2 * b - 1)), float(3 * b))))


def resistance_distances(n: int, edges) -> dict:
    """All-pairs resistance distance, indexed ``[i][j]``."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i, j, c in edges:
        g.add_edge(i, j, resistance=1.0 / c)
    return nx.resistance_distance(g, weight="resistance", invert_weight=True)


def close(value: float, reference: float, rel: float) -> bool:
    """|value - reference| <= rel * |reference|, false for non-finite values."""
    return bool(np.isfinite(value)) and abs(value - reference) <= rel * abs(reference)
