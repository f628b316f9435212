"""Effective-resistance metric and global resistance of weighted graphs.

Every resistance query reads from one resistance matrix, computed once per
graph object. Grounding the vertex g of largest degree deletes its row and
column from the Laplacian; the rest is symmetric positive definite, and its
inverse, padded with zeros at g, is a generalized inverse G of the Laplacian
with ``R_ij = G_ii + G_jj - 2 G_ij``. The read-only matrix and the pivot
ratio of its Cholesky factor are kept in a cache keyed weakly on the graph,
so :func:`effective_resistance`, :func:`global_resistance` and
:func:`metric_check` on one :class:`WeightedGraph` share one connectivity
check, one Laplacian and one elimination, and the entry dies with its graph.
A grounded LU solve per pair provides a second route for tests, and
series-parallel closed forms cover cycles.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import DisconnectedGraphError, GraphError, WeightedGraph, is_connected, laplacian
from .linalg import NotPositiveDefiniteError, solve_spd

ILL_CONDITIONED_PIVOT_RATIO = 1e14


class IllConditionedWarning(RuntimeWarning):
    """Extreme conductance ratios made the grounded Laplacian nearly singular."""


@dataclass(frozen=True)
class ResistanceReport:
    """Resistance distance of one vertex pair and the minimizing energy (its reciprocal).

    ``pivot_ratio`` is max(pivot)/min(pivot) of the Cholesky factorization
    behind the value; above ``ILL_CONDITIONED_PIVOT_RATIO`` the query also
    raises :class:`IllConditionedWarning`.
    """

    pair: tuple[int, int]
    value: float
    energy_min: float
    pivot_ratio: float


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
    the grounded Laplacian, with the pivot ratio of that factorization."""
    _require_connected(g)
    h = laplacian(g).entries
    ground = int(np.argmax(np.diag(h)))
    keep = [k for k in range(g.n) if k != ground]
    try:
        inverse, pivot_ratio = solve_spd(h[np.ix_(keep, keep)], np.eye(g.n - 1),
                                         return_pivot_ratio=True)
    except NotPositiveDefiniteError as exc:
        raise DisconnectedGraphError(
            "grounded Laplacian is not positive definite (graph disconnected?)"
        ) from exc
    green = np.zeros((g.n, g.n))
    green[np.ix_(keep, keep)] = inverse
    diagonal = np.diag(green)
    resistances = diagonal[:, None] + diagonal[None, :] - 2.0 * green
    resistances.setflags(write=False)
    return resistances, pivot_ratio


#: id(graph) -> (weak reference to the graph, resistance matrix, pivot ratio).
#: The reference's callback drops the entry when the graph is collected, before
#: its id can be reused. A failed elimination is never stored.
_ELIMINATIONS: dict[int, tuple[weakref.ref, np.ndarray, float]] = {}


def _resistance_matrix(g: WeightedGraph) -> tuple[np.ndarray, float]:
    """The read-only resistance matrix of ``g`` and its pivot ratio, one elimination per graph object.

    The first query on a graph object eliminates it and caches the result;
    later queries on the same object read the cache. ``WeightedGraph`` is
    frozen, so a race can at worst compute the same matrix twice. Every call
    warns when the pivot ratio marks the matrix as ill conditioned, cached or not.
    """
    key = id(g)
    entry = _ELIMINATIONS.get(key)
    if entry is None:
        # pop is bound now, so the callback still works while the interpreter shuts down
        forget = weakref.ref(g, lambda _, pop=_ELIMINATIONS.pop: pop(key, None))
        entry = _ELIMINATIONS[key] = (forget, *_eliminate(g))
    _, resistances, pivot_ratio = entry
    if pivot_ratio > ILL_CONDITIONED_PIVOT_RATIO:
        warnings.warn(
            f"grounded Laplacian is ill conditioned (pivot ratio {pivot_ratio:.3e}); "
            "resistance values may lose accuracy",
            IllConditionedWarning,
            stacklevel=3,
        )
    return resistances, pivot_ratio


def effective_resistance(g: WeightedGraph, i: int, j: int) -> ResistanceReport:
    """Resistance distance between vertices i and j with the minimizing energy."""
    _check_pair(g, i, j)
    resistances, pivot_ratio = _resistance_matrix(g)
    value = float(resistances[i, j])
    return ResistanceReport(pair=(i, j), value=value, energy_min=1.0 / value, pivot_ratio=pivot_ratio)


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
    return float(sum(r[i, j] for i, j, _ in g.edges))


def three_cycle_rho(c01: float, c02: float, c12: float) -> float:
    """Global resistance of a 3-cycle, 2(c01+c02+c12) / (c01*c02 + c01*c12 + c02*c12),
    evaluated as the 2E/S of :func:`cycle_rho_closed_form`."""
    return cycle_rho_closed_form((c01, c12, c02))


def resistance_sums(conductances: Sequence[float]) -> tuple[float, float]:
    """(S, E) of edges in series: the sum of the resistances r_e = 1/c_e and
    the sum of their pairwise products r_e r_f over e < f, on plain floats."""
    total = 0.0
    pairs = 0.0
    for c in conductances:
        r = 1.0 / c
        pairs += r * total
        total += r
    return total, pairs


def cycle_rho_closed_form(conductances: Sequence[float]) -> float:
    """Global resistance of an n-cycle by series-parallel reduction.

    With edge resistances r_e = 1/c_e and S their sum, each adjacent pair
    sees r_e (S - r_e) / S, so the total is (S^2 - sum of r_e^2) / S = 2E/S,
    E being the sum of the pairwise products r_e r_f. E adds positive terms
    only, so the result keeps full relative accuracy at any conductance ratio.
    """
    try:
        values = [float(c) for c in conductances]
    except TypeError:
        raise GraphError(f"conductances must be a flat sequence of reals, got {conductances!r}") from None
    if len(values) < 3:
        raise GraphError(f"a cycle needs at least 3 conductances, got {len(values)}")
    if not all(c > 0.0 for c in values):
        raise GraphError("conductances must all be positive")
    total, pairs = resistance_sums(values)
    return 2.0 * pairs / total


def metric_check(g: WeightedGraph, tol: float = 1e-10) -> bool:
    """Numerically confirm the resistance distance is a metric on the vertices.

    Checks symmetry of the computed resistance matrix (R_ij and R_ji come
    from the two off-diagonal entries of the computed inverse) and the
    triangle inequality over all vertex triples. ``tol`` is relative: each
    check has slack ``tol`` times the largest resistance, so the verdict does
    not change when every conductance is scaled by the same factor.
    """
    d, _ = _resistance_matrix(g)
    slack = tol * float(d.max())
    if np.max(np.abs(d - d.T)) > slack:
        return False
    for b in range(g.n):
        # d(a, c) <= d(a, b) + d(b, c) for every a, c through the middle vertex b;
        # repeated vertices need no exclusion because the diagonal is exactly zero
        if np.any(d > d[:, b, None] + d[None, b, :] + slack):
            return False
    return True
