"""Effective-resistance metric and global resistance of weighted graphs.

Every resistance query reads from one resistance matrix, computed once per
graph object. Grounding the vertex g of largest degree deletes its row and
column from the Laplacian; the rest is symmetric positive definite, and its
inverse, padded with zeros at g, is a generalized inverse G of the Laplacian
with ``R_ij = G_ii + G_jj - 2 G_ij``. The read-only matrix and its Foster
residual are kept in a cache keyed weakly on the graph, so
:func:`effective_resistance`, :func:`global_resistance` and
:func:`metric_check` on one :class:`WeightedGraph` share one connectivity
check, one Laplacian and one elimination, and the entry dies with its graph.
The one accuracy signal is Foster's identity, sum over edges of c_e R_e = n - 1
(Foster 1949; Tetali 1991): necessary, not sufficient, since errors on
different edges can cancel and it constrains no non-adjacent pair. A grounded
LU solve per pair provides a second route for tests, and series-parallel
closed forms cover cycles.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import DisconnectedGraphError, GraphError, WeightedGraph, is_connected, laplacian
from .linalg import solve_spd

#: Foster residual above which a query warns; graphs with n <= 300 and ratios to 1e4 stay below 5e-13.
FOSTER_RESIDUAL_LIMIT = 1e-11


class IllConditionedWarning(RuntimeWarning):
    """The resistance matrix misses Foster's identity by more than ``FOSTER_RESIDUAL_LIMIT``."""


@dataclass(frozen=True)
class ResistanceReport:
    """Resistance distance of one vertex pair and the minimizing energy (its reciprocal).

    ``foster_residual`` is |sum of c_e R_e - (n - 1)| / (n - 1) over the
    edges of the graph, from the resistance matrix behind the value; above
    ``FOSTER_RESIDUAL_LIMIT`` the query also raises :class:`IllConditionedWarning`.
    """

    pair: tuple[int, int]
    value: float
    energy_min: float
    foster_residual: float


def _check_pair(g: WeightedGraph, i: int, j: int) -> None:
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise GraphError(f"vertex pair ({i}, {j}) out of range for n={g.n}")
    if i == j:
        raise GraphError("resistance distance requires two distinct vertices")


def _require_connected(g: WeightedGraph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def _eliminate(g: WeightedGraph) -> tuple[np.ndarray, float]:
    """All pairwise resistance distances, read-only, from one Cholesky solve of
    the grounded Laplacian, with their Foster residual; R has an exactly zero
    diagonal, so -<L, R>/2 is the sum of c_e R_e. The Laplacian is built from
    the conductances scaled by the even power of two 4^-k that brings the
    largest one into [1/2, 2), so no degree overflows: the square roots of the
    Cholesky factorization keep that scaling exact, so in the normal range the
    solve and the residual give the bits they give unscaled, and only R's final
    rescaling by 4^-k can leave the float range (a resistance beyond it reads
    inf, which the queries reject).
    The graph is connected, so a Cholesky breakdown (``NotPositiveDefiniteError``)
    or a resistance that is not positive between distinct vertices is a
    numerical failure, a ``LinAlgError``."""
    _require_connected(g)
    k = math.frexp(max(c for _, _, c in g.edges))[1] // 2
    h = laplacian(g, -2 * k).entries
    ground = int(np.argmax(np.diag(h)))
    keep = [v for v in range(g.n) if v != ground]
    green = np.zeros((g.n, g.n))
    green[np.ix_(keep, keep)] = solve_spd(h[np.ix_(keep, keep)], np.eye(g.n - 1))
    diagonal = np.diag(green)
    scaled = diagonal[:, None] + diagonal[None, :] - 2.0 * green
    foster_residual = abs(-0.5 * float(np.vdot(h, scaled)) - (g.n - 1)) / (g.n - 1)
    with np.errstate(over="ignore"):
        resistances = np.ldexp(scaled, -2 * k)
    if not np.all(resistances[~np.eye(g.n, dtype=bool)] > 0.0):
        raise np.linalg.LinAlgError(
            "elimination lost all accuracy: a resistance between distinct vertices is not positive")
    resistances.setflags(write=False)
    return resistances, foster_residual


def _in_range(value: float) -> float:
    """``value``, unless it is a resistance past the float range."""
    if value == math.inf:
        raise np.linalg.LinAlgError("a resistance exceeds the float range")
    return value


#: id(graph) -> (weak reference to the graph, resistance matrix, Foster residual).
#: The reference's callback drops the entry when the graph is collected, before
#: its id can be reused. A failed elimination is never stored.
_ELIMINATIONS: dict[int, tuple[weakref.ref, np.ndarray, float]] = {}


def _resistance_matrix(g: WeightedGraph) -> tuple[np.ndarray, float]:
    """The read-only resistance matrix of ``g`` and its Foster residual, one elimination per graph object.

    The first query on a graph object eliminates it and caches the result;
    later queries on the same object read the cache. ``WeightedGraph`` is
    frozen, so a race can at worst compute the same matrix twice. Every call,
    cached or not, warns when the residual exceeds ``FOSTER_RESIDUAL_LIMIT`` or is NaN.
    """
    key = id(g)
    entry = _ELIMINATIONS.get(key)
    if entry is None:
        # pop is bound now, so the callback still works while the interpreter shuts down
        forget = weakref.ref(g, lambda _, pop=_ELIMINATIONS.pop: pop(key, None))
        entry = _ELIMINATIONS[key] = (forget, *_eliminate(g))
    _, resistances, foster_residual = entry
    if not foster_residual <= FOSTER_RESIDUAL_LIMIT:
        warnings.warn(f"resistance matrix misses Foster's identity by {foster_residual:.3e} relative; "
                      "resistance values may lose accuracy", IllConditionedWarning, stacklevel=3)
    return resistances, foster_residual


def effective_resistance(g: WeightedGraph, i: int, j: int) -> ResistanceReport:
    """Resistance distance between vertices i and j with the minimizing energy."""
    _check_pair(g, i, j)
    resistances, residual = _resistance_matrix(g)
    value = _in_range(float(resistances[i, j]))
    return ResistanceReport(pair=(i, j), value=value, energy_min=1.0 / value, foster_residual=residual)


def effective_resistance_oracle(g: WeightedGraph, i: int, j: int) -> float:
    """Resistance distance by grounding vertex j and injecting unit current at i.

    Deletes row and column j from the Laplacian and solves the remaining
    system with a general (LU) solver, giving a route through entirely
    different arithmetic than :func:`effective_resistance`.
    """
    _check_pair(g, i, j)
    _require_connected(g)
    h = laplacian(g).entries
    keep = [k for k in range(g.n) if k != j]
    reduced = h[np.ix_(keep, keep)]
    rhs = np.zeros(g.n - 1)
    pos = keep.index(i)
    rhs[pos] = 1.0
    potential = np.linalg.solve(reduced, rhs)
    return float(potential[pos])


def global_resistance(g: WeightedGraph) -> float:
    """Sum of resistance distances over adjacent vertex pairs only."""
    if not g.edges:
        raise GraphError("global resistance needs at least one edge")
    r, _ = _resistance_matrix(g)
    # Python floats, which add past the float range to inf without a warning
    return _in_range(sum(r.item(i, j) for i, j, _ in g.edges))


def resistance_sums(conductances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, E, exponent) of edges in series, over the last axis of a (..., k) array:
    the sum of the resistances r_e = 1/c_e and of their pairwise products
    r_e r_f over e < f, of the r_e scaled by 2^-exponent, the power of two
    that brings S into [1/2, 1). The exact scaling keeps E from underflowing
    or overflowing. A row of a stack gives the bits it gives alone."""
    r = 1.0 / np.asarray(conductances, dtype=float)
    total, exponents = np.frexp(r.sum(axis=-1))
    r = np.ldexp(r, -exponents[..., None])
    pairs = (r[..., 1:] * np.cumsum(r, axis=-1)[..., :-1]).sum(axis=-1)
    return total, pairs, exponents


def cycle_rho_closed_form(conductances: Sequence[float]) -> float:
    """Global resistance of an n-cycle by series-parallel reduction.

    With edge resistances r_e = 1/c_e and S their sum, each adjacent pair
    sees r_e (S - r_e) / S, so the total is (S^2 - sum of r_e^2) / S = 2E/S,
    E being the sum of the pairwise products r_e r_f. E adds positive terms
    only, so the result keeps full relative accuracy at any conductance ratio,
    and :func:`resistance_sums` scales it free of underflow and overflow.
    """
    try:
        values = [float(c) for c in conductances]
    except TypeError:
        raise GraphError(f"conductances must be a flat sequence of reals, got {conductances!r}") from None
    if len(values) < 3:
        raise GraphError(f"a cycle needs at least 3 conductances, got {len(values)}")
    if not all(0.0 < c < math.inf for c in values):
        raise GraphError(f"conductances must all be positive and finite, got {values}")
    total, pairs, exponent = resistance_sums(values)
    return float(np.ldexp(2.0 * pairs / total, exponent))


def metric_check(g: WeightedGraph, tol: float = 1e-10) -> bool:
    """Numerically confirm the resistance distance is a metric on the vertices.

    Checks symmetry of the computed resistance matrix (R_ij and R_ji come
    from the two off-diagonal entries of the computed inverse) and the
    triangle inequality over all vertex triples. ``tol`` is relative: each
    check has slack ``tol`` times the largest resistance, so the verdict does
    not change when every conductance is scaled by the same factor.
    """
    d, _ = _resistance_matrix(g)
    slack = tol * _in_range(float(d.max()))
    if np.max(np.abs(d - d.T)) > slack:
        return False
    for b in range(g.n):
        # d(a, c) <= d(a, b) + d(b, c) for every a, c through the middle vertex b;
        # repeated vertices need no exclusion because the diagonal is exactly zero
        if np.any(d > d[:, b, None] + d[None, b, :] + slack):
            return False
    return True
