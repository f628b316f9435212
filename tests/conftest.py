"""Shared corpus builders and call counters for the test suite."""

import math

import numpy as np

from ohmlab import WeightedGraph, build_graph, cycle


def log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=size))


def random_connected_graph(rng: np.random.Generator, n: int,
                           c_lo: float = 1e-2, c_hi: float = 1e2,
                           extra_edge_prob: float = 0.35) -> WeightedGraph:
    """Random spanning tree plus extra edges; conductances log-uniform."""
    pairs = set()
    for k in range(1, n):
        pairs.add((int(rng.integers(0, k)), k))
    for i in range(n - 1):
        for j in range(i + 1, n):
            if (i, j) not in pairs and rng.random() < extra_edge_prob:
                pairs.add((i, j))
    edges = [(i, j, float(log_uniform(rng, c_lo, c_hi))) for i, j in sorted(pairs)]
    return build_graph(n, edges)


def random_cycle(rng: np.random.Generator, n: int,
                 c_lo: float = 1e-2, c_hi: float = 1e2) -> WeightedGraph:
    return cycle(n, log_uniform(rng, c_lo, c_hi, size=n).tolist())


def count_calls(monkeypatch, module, names):
    """Wrap the named functions as ``module`` binds them; return the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts
