"""Weighted graphs, Laplacian assembly, the energy form, and conductance scaling.

Graphs are finite, simple, undirected, and loop-free. Every edge carries a
strictly positive conductance; an absent edge means conductance zero. Edges
are stored canonically sorted with i < j so that iteration order, and hence
all downstream floating-point accumulation, is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import SymmetricMatrix


class GraphError(ValueError):
    """Invalid graph data: bad index, non-positive conductance, duplicate or loop edge."""


class GraphFormatError(GraphError):
    """Edge-list text violating the file format; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedGraphError(GraphError):
    """Raised by operations that require a connected graph."""


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph: vertex count and canonical (i, j, c) edges.

    Construct through :func:`build_graph` or :func:`cycle`, which validate and
    canonicalize. Instances are safe to share between concurrent tasks: the
    resistance queries of :mod:`ohmlab.resistance` cache one elimination per
    graph object outside it, and since a graph never changes, two tasks that
    query it at once can at worst both compute that same elimination.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]


def build_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """Validate an edge list and return the canonical graph (edges sorted by (i, j))."""
    if not isinstance(n, int) or n < 2:
        raise GraphError(f"vertex count must be an integer >= 2, got {n!r}")
    canonical = []
    seen = set()
    for entry in edges:
        try:
            i, j, c = entry
            i = operator.index(i)
            j = operator.index(j)
            c = float(c)
        except (TypeError, ValueError):
            raise GraphError(
                f"edge must be (i, j, c) with integer vertices and a real conductance: {entry!r}"
            ) from None
        if i == j:
            raise GraphError(f"loop edge not allowed: {entry!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"vertex index out of range for n={n}: {entry!r}")
        if not c > 0.0 or not math.isfinite(c):
            raise GraphError(f"conductance must be a positive finite real: {entry!r}")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise GraphError(f"duplicate edge: {entry!r}")
        seen.add((i, j))
        canonical.append((i, j, c))
    canonical.sort()
    return WeightedGraph(n=n, edges=tuple(canonical))


def cycle(n: int, conductances: Sequence[float]) -> WeightedGraph:
    """The n-cycle whose edge k joins vertices k and k+1 (mod n).

    ``conductances`` is ordered (c_01, c_12, ..., c_{n-1,0}).
    """
    if not isinstance(n, int) or n < 3:
        raise GraphError(f"cycle needs n >= 3 vertices, got {n!r}")
    if len(conductances) != n:
        raise GraphError(f"expected {n} conductances, got {len(conductances)}")
    edges = [(k, (k + 1) % n, float(c)) for k, c in enumerate(conductances)]
    return build_graph(n, edges)


#: Weight of each edge's four Laplacian entries (i, j), (j, i), (i, i), (j, j) per unit conductance.
_ENTRY_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])


@functools.cache
def _entry_offsets(n: int) -> np.ndarray:
    """(2, 4) map from an edge's (i, j) to the flat indices of its four Laplacian entries."""
    return np.array([[n, 1, n + 1, 0], [1, n, 0, n + 1]])


def laplacian(g: WeightedGraph) -> SymmetricMatrix:
    """Weighted graph Laplacian: H[k,k] = sum of incident conductances, H[i,j] = -c_ij.

    One ``np.bincount`` over the flat indices of every edge's four entries
    assembles the matrix. It adds the weights in edge order, so each diagonal
    entry is the left-to-right sum 0 + c_1 + c_2 + ... of its vertex's
    conductances, bit for bit the sum of the obvious per-edge loop.
    """
    n = g.n
    m = len(g.edges)
    columns = np.fromiter(itertools.chain.from_iterable(g.edges), dtype=float, count=3 * m).reshape(m, 3)
    flat = columns[:, :2].astype(np.intp) @ _entry_offsets(n)
    weights = columns[:, 2:] * _ENTRY_SIGNS
    # bincount returns integer zeros when it is given no edges at all
    h = np.bincount(flat.ravel(), weights.ravel(), n * n).astype(float, copy=False)
    return SymmetricMatrix._trusted(h.reshape(n, n))


def three_cycle_graph(c01: float, c02: float, c12: float) -> WeightedGraph:
    """3-cycle from the vertex-pair triple (c01, c02, c12), i.e. cycle(3, (c01, c12, c02))."""
    return cycle(3, (c01, c12, c02))


def three_cycle_laplacian(c01: float, c02: float, c12: float) -> SymmetricMatrix:
    """Laplacian of the 3-cycle with vertex-pair conductances (c01, c02, c12)."""
    return laplacian(three_cycle_graph(c01, c02, c12))


def energy(g: WeightedGraph, values: Sequence[float]) -> float:
    """Energy of a vertex function: sum over edges of c_ij (f_i - f_j)^2."""
    f = np.asarray(values, dtype=float)
    if f.shape != (g.n,):
        raise GraphError(f"vertex function must have length {g.n}, got shape {f.shape}")
    total = 0.0
    for i, j, c in g.edges:
        d = f[i] - f[j]
        total += c * d * d
    return float(total)


def scale(g: WeightedGraph, alpha: float) -> WeightedGraph:
    """Multiply every conductance by alpha > 0."""
    alpha = float(alpha)
    if not alpha > 0.0 or not np.isfinite(alpha):
        raise GraphError(f"scale factor must be a positive finite real, got {alpha!r}")
    return WeightedGraph(n=g.n, edges=tuple((i, j, c * alpha) for i, j, c in g.edges))


def is_connected(g: WeightedGraph) -> bool:
    """True iff the graph has a single connected component."""
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        k = stack.pop()
        for other in adjacency[k]:
            if not seen[other]:
                seen[other] = True
                count += 1
                stack.append(other)
    return count == g.n


def parse_graph(text: str) -> WeightedGraph:
    """Parse edge-list text: a header line ``n <count>`` then ``i j c`` lines.

    Lines starting with ``#`` and blank lines are skipped. Format violations
    raise :class:`GraphFormatError` with the offending line number; semantic
    violations (range, sign, duplicates) raise :class:`GraphError`.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise GraphFormatError(lineno, f"expected header 'n <count>', got {raw!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(lineno, f"vertex count is not an integer: {tokens[1]!r}") from None
            continue
        if len(tokens) != 3:
            raise GraphFormatError(lineno, f"expected edge line 'i j c', got {raw!r}")
        try:
            i = int(tokens[0])
            j = int(tokens[1])
        except ValueError:
            raise GraphFormatError(lineno, f"vertex indices must be integers: {raw!r}") from None
        try:
            c = float(tokens[2])
        except ValueError:
            raise GraphFormatError(lineno, f"conductance is not a number: {tokens[2]!r}") from None
        edges.append((i, j, c))
    if n is None:
        raise GraphFormatError(1, "missing header line 'n <count>'")
    return build_graph(n, edges)


def load_graph(path) -> WeightedGraph:
    """Read a graph from an edge-list text file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def dump_graph(g: WeightedGraph) -> str:
    """Edge-list text for a graph, parseable by :func:`parse_graph`."""
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j} {c!r}" for i, j, c in g.edges)
    return "\n".join(lines) + "\n"
