"""Effective-resistance metric and global resistance of weighted graphs.

Every resistance query reads from one resistance matrix, computed once per
graph object by one of two routes, chosen from the graph:

- A graph that is one cycle through all its n >= 3 vertices takes the arc
  route. Between two vertices lie two arcs of the cycle, of resistances a and
  b, in parallel, so ``R_ij = a b / (a + b)``. Every arc is read from one
  table of sums of positive edge resistances, so every pair is right to a few
  n eps, with O(n^2) numpy work and no LAPACK.
- Every other graph, and a cycle whose scaled resistances sum past 2^1022
  (a conductance ratio past about 2^1021 / n), takes the Cholesky route.
  Grounding the vertex g of largest degree deletes its row and column from
  the Laplacian; the rest is symmetric positive definite, and its inverse,
  padded with zeros at g, is a generalized inverse G of the Laplacian with
  ``R_ij = G_ii + G_jj - 2 G_ij``. Its accuracy falls with the conditioning
  of the Laplacian.

The read-only matrix and its Foster residual are kept in a cache keyed weakly
on the graph, so :func:`effective_resistance`, :func:`global_resistance` and
:func:`metric_check` on one :class:`WeightedGraph` share one elimination, and
the entry dies with its graph. The one accuracy signal is Foster's identity,
sum over edges of c_e R_e = n - 1 (Foster 1949; Tetali 1991): necessary, not
sufficient, since errors on different edges can cancel and it constrains no
non-adjacent pair. A grounded LU solve per pair provides a second route for
tests.

This module holds only code on graph objects, the arc route for cycle graphs
included. Cycles given by their conductances, one or a stack of them, are
:mod:`ohmlab.cycles`': the series sums, the closed-form global resistance and
the spectra.
"""

from __future__ import annotations

import functools
import math
import warnings
import weakref
from dataclasses import dataclass

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


def _cycle_walk(g: WeightedGraph) -> tuple[list[int], list[float]] | None:
    """The position of each vertex of ``g`` along a walk round the cycle from
    vertex 0, and the conductances of the n steps, step k joining positions k
    and k + 1 mod n, when ``g`` is one cycle through all n >= 3 vertices;
    otherwise None.

    The graph needs n edges and two neighbours at every vertex. The walk from
    vertex 0 to the neighbour it did not come from then returns to 0, and
    takes n steps only if the graph is connected: two disjoint triangles pass
    the first two tests, not this one."""
    n = g.n
    if n < 3 or len(g.edges) != n:
        return None
    links: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, c in g.edges:
        links[i].append((j, c))
        links[j].append((i, c))
    if any(len(pair) != 2 for pair in links):
        return None
    positions, steps = [0] * n, []
    previous, (vertex, c) = 0, links[0][0]
    while vertex != 0:
        steps.append(c)
        positions[vertex] = len(steps)
        first, second = links[vertex]
        previous, (vertex, c) = vertex, second if first[0] == previous else first
    steps.append(c)
    return (positions, steps) if len(steps) == n else None


#: Bound on the sum of a cycle's scaled resistances: below it, no sum of two
#: arcs can leave the float range.
_ARC_SUM_LIMIT = math.ldexp(1.0, 1022)


# 24 n^2 bytes a size, 150 KiB at n = 80: the bound keeps a process that meets
# many sizes from holding them all
@functools.lru_cache(maxsize=16)
def _arc_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays of the n-cycle's arc table, whose row p is the
    cumulative sum of r_p, r_(p+1), ..., r_(p+n-1), positions mod n: the
    (n, n) rotation that lays the resistances out in those rows, and the flat
    table indices of the two arcs between every two cycle positions, the one
    forward from the lower position and the one forward from the higher."""
    positions = np.arange(n)
    lo, hi = np.minimum.outer(positions, positions), np.maximum.outer(positions, positions)
    span = hi - lo
    indices = ((positions[:, None] + positions) % n, lo * n + span - 1, hi * n + (n - 1 - span))
    for index in indices:
        index.setflags(write=False)
    return indices


def _arc_resistances(positions: list[int], steps: list[float]) -> tuple[np.ndarray, float, int] | None:
    """(R 2^e, Foster residual, e) of the cycle of :func:`_cycle_walk`, by
    series-parallel reduction, or None when the scaled resistances sum past
    ``_ARC_SUM_LIMIT``.

    The conductances are scaled by 2^-e, the power of two that brings the
    largest into [1/2, 1), so every scaled resistance r_k is at least 1 and no
    arc underflows. The table A[p, l] = r_p + ... + r_(p+l), positions mod n,
    is the row-wise cumulative sum of the rotated resistances: positive
    additions only, so every arc keeps full relative accuracy, where an arc
    taken as a difference of two sums would cancel. Cycle positions p < q are
    joined by the arcs a = A[p, q-p-1] and b = A[q, n-q+p-1], and
    R = a (b / (a + b)), which cannot overflow while a + b stays in range."""
    n = len(steps)
    exponent = math.frexp(max(steps))[1]
    conductances = np.ldexp(steps, -exponent)
    # a conductance far below the largest scales to a subnormal or zero, whose
    # resistance is inaccurate or inf; such a cycle sums past the limit
    with np.errstate(over="ignore", divide="ignore"):
        r = 1.0 / conductances
        if not r.sum() < _ARC_SUM_LIMIT:
            return None
    rotation, first, second = _arc_indices(n)
    arcs = np.cumsum(r[rotation], axis=1).ravel()
    a, b = arcs[first], arcs[second]
    scaled = a * (b / (a + b))
    np.fill_diagonal(scaled, 0.0)
    # the steps join positions k and k + 1, and the last positions n - 1 and 0
    foster_sum = float(np.dot(conductances[:-1], np.diagonal(scaled, 1)) + conductances[-1] * scaled[-1, 0])
    return scaled.take(positions, 0).take(positions, 1), abs(foster_sum - (n - 1)) / (n - 1), exponent


def _grounded_resistances(g: WeightedGraph) -> tuple[np.ndarray, float, int]:
    """(R 4^k, Foster residual, 2k) from one Cholesky solve of the grounded
    Laplacian; R has an exactly zero diagonal, so -<L, R>/2 is the sum of
    c_e R_e. The Laplacian is built from the conductances scaled by the even
    power of two 4^-k that brings the largest one into [1/2, 2), so no degree
    overflows: the square roots of the Cholesky factorization keep that
    scaling exact, so in the normal range the solve and the residual give the
    bits they give unscaled. A Cholesky breakdown raises
    ``NotPositiveDefiniteError``, a ``LinAlgError``; a disconnected graph
    raises ``DisconnectedGraphError``."""
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
    return scaled, foster_residual, 2 * k


def _eliminate(g: WeightedGraph) -> tuple[np.ndarray, float]:
    """All pairwise resistance distances, read-only, with their Foster residual.

    A graph that is one cycle through all its n >= 3 vertices
    (:func:`_cycle_walk`) takes the arc route, :func:`_arc_resistances`, unless
    its scaled resistances sum past 2^1022, as with a subnormal edge: every
    pair within 2n eps of exact, in O(n^2). Every other graph takes the
    grounded Cholesky route, :func:`_grounded_resistances`, in O(n^3): its
    error grows with the conditioning of the Laplacian (2e-11 relative on some
    60-cycles at ratio 1e4), and Foster's residual is the signal of it. Both
    routes compute on scaled conductances, so only R's final rescaling can
    leave the float range (a resistance beyond it reads inf, which the queries
    reject). The graph is connected, so a Cholesky breakdown or a resistance
    that is not positive between distinct vertices is a numerical failure, a
    ``LinAlgError``."""
    walk = _cycle_walk(g)
    arcs = _arc_resistances(*walk) if walk is not None else None
    scaled, foster_residual, exponent = arcs if arcs is not None else _grounded_resistances(g)
    with np.errstate(over="ignore"):
        resistances = np.ldexp(scaled, -exponent)
    # the diagonal is zero (NaN where the Cholesky route overflowed), never
    # positive, so this counts the positive resistances between distinct vertices
    if np.count_nonzero(resistances > 0.0) != g.n * (g.n - 1):
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


def metric_check(g: WeightedGraph, tol: float = 1e-10) -> bool:
    """Numerically confirm the resistance distance is a metric on the vertices.

    Checks symmetry of the computed resistance matrix (on the Cholesky route,
    R_ij and R_ji come from the two off-diagonal entries of the computed
    inverse) and the triangle inequality over all vertex triples. ``tol`` is relative: each
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
