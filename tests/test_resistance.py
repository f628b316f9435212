"""Resistance distance routes, global resistance, closed forms, metric checks."""

import gc
import math
import warnings
import weakref
from fractions import Fraction

import mpmath
import networkx as nx
import numpy as np
import pytest

from ohmlab import (
    DisconnectedGraphError,
    GraphError,
    IllConditionedWarning,
    build_graph,
    cycle,
    cycle_rho_closed_form,
    effective_resistance,
    effective_resistance_oracle,
    global_resistance,
    metric_check,
    scale,
)
import ohmlab.resistance
from ohmlab.linalg import NotPositiveDefiniteError
from ohmlab.resistance import FOSTER_RESIDUAL_LIMIT, _ELIMINATIONS, _resistance_matrix

from conftest import count_calls, log_uniform, random_connected_graph, random_cycle, series_parallel_resistances


def unit_cycle(n):
    return cycle(n, [1.0] * n)


def chorded(conductances, i, j):
    """The cycle of ``conductances`` plus a unit chord between vertices i and j,
    a graph that takes the Cholesky route."""
    return build_graph(len(conductances), cycle(len(conductances), list(conductances)).edges + ((i, j, 1.0),))


def edge_sum_residual(g):
    """Foster's residual |sum of c_e R_e - (n - 1)| / (n - 1), summed edge by edge.

    R_e is the mean of R_ij and R_ji: the computed inverse is symmetric only
    to round-off, and -<L, R>/2 reads both halves."""
    r, _ = _resistance_matrix(g)
    total = math.fsum(c * (r[i, j] + r[j, i]) / 2 for i, j, c in g.edges)
    return abs(total - (g.n - 1)) / (g.n - 1)


class TestEffectiveResistance:
    def test_unit_three_cycle_adjacent(self):
        # closed form (c02 + c12) / (c01 c02 + c01 c12 + c02 c12) at unit weights
        report = effective_resistance(unit_cycle(3), 0, 1)
        assert report.value == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert report.energy_min == pytest.approx(1.5, rel=1e-14)
        assert report.value == pytest.approx(1.0 / report.energy_min, rel=1e-12)

    def test_single_resistor(self):
        report = effective_resistance(build_graph(2, [(0, 1, 4.0)]), 0, 1)
        assert report.value == 0.25
        assert report.energy_min == 4.0

    def test_unit_four_cycle_diagonal(self):
        # two series pairs in parallel: (1+1) || (1+1) = 1, reduced by hand
        report = effective_resistance(unit_cycle(4), 0, 2)
        assert report.value == pytest.approx(1.0, rel=1e-14)

    def test_symmetric_in_pair(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_connected_graph(rng, 7)
            i, j = 1, 5
            assert effective_resistance(g, i, j).value == pytest.approx(
                effective_resistance(g, j, i).value, rel=1e-12)

    def test_rejects_equal_vertices(self):
        with pytest.raises(GraphError, match="distinct"):
            effective_resistance(unit_cycle(3), 1, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="range"):
            effective_resistance(unit_cycle(3), 0, 3)

    def test_rejects_disconnected(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            effective_resistance(g, 0, 1)

    def test_extreme_ratio_four_cycle_is_exact_and_silent(self):
        # conductance ratio 1e32, yet every pair is right to a few eps and
        # Foster's identity holds, so no query warns
        conductances = [1.0, 1e16, 1e-16, 1.0]
        g = cycle(4, conductances)
        want = series_parallel_resistances(conductances)
        eps = np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(4):
                for j in range(i + 1, 4):
                    value = effective_resistance(g, i, j).value
                    assert abs(value - want[i][j]) <= 4 * eps * want[i][j], (i, j)

    def test_reports_foster_residual(self):
        g = cycle(4, [1.0, 2.0, 3.0, 4.0])
        report = effective_resistance(g, 0, 2)
        assert report.foster_residual == _resistance_matrix(g)[1]
        assert report.foster_residual <= FOSTER_RESIDUAL_LIMIT


class TestFloatRange:
    """The elimination runs on the Laplacian scaled by a power of four."""

    @pytest.mark.filterwarnings("error")
    def test_resistances_near_the_float_limit(self):
        g = cycle(10, [1e-308] * 10)
        # the two arcs of the unit-weight cycle hold k and 10 - k of the 10 resistances
        r = 1 / Fraction(1e-308)
        for j, arc in ((1, 1), (2, 2), (9, 1)):
            want = float(arc * (10 - arc) * r / 10)
            assert effective_resistance(g, 0, j).value == pytest.approx(want, rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_values_past_the_float_range_raise(self):
        g = cycle(10, [1e-308] * 10)
        with pytest.raises(np.linalg.LinAlgError, match="float range"):
            effective_resistance(g, 0, 3)  # 2.1e308
        with pytest.raises(np.linalg.LinAlgError, match="float range"):
            global_resistance(g)  # 9e308
        with pytest.raises(np.linalg.LinAlgError, match="float range"):
            metric_check(g)

    @pytest.mark.filterwarnings("error")
    def test_degrees_past_the_float_range(self):
        # every degree is 2e308, past the float range; every resistance is
        # 2/3 of 1/1e308, a subnormal, so two spacings of 2^-1074 cover its rounding
        g = cycle(3, [1e308] * 3)
        want = float(Fraction(2, 3) / Fraction(1e308))
        for i, j in ((0, 1), (1, 2), (0, 2)):
            assert abs(effective_resistance(g, i, j).value - want) <= 2 * math.ulp(0.0)
        assert abs(global_resistance(g) - 2e-308) <= 6 * math.ulp(0.0)
        assert metric_check(g)

    def test_power_of_four_scaling_moves_no_bit(self):
        # Cholesky's square roots keep an even power of two exact, not an odd one
        g = random_connected_graph(np.random.default_rng(29), 12)
        r, residual = _resistance_matrix(g)
        for exponent in (-1000, -300, 2, 300, 1000):
            scaled, scaled_residual = _resistance_matrix(scale(g, 2.0 ** exponent))
            assert np.array_equal(scaled, np.ldexp(r, -exponent))
            assert scaled_residual == residual


class TestOneEliminationPerGraph:
    def test_every_query_on_one_graph_shares_one_elimination(self, monkeypatch):
        g = random_connected_graph(np.random.default_rng(1), 30)
        counts = count_calls(monkeypatch, ohmlab.resistance, ("is_connected", "laplacian", "solve_spd"))
        values = [effective_resistance(g, i, j).value for i, j, _ in g.edges]
        global_resistance(g)
        assert metric_check(g)
        assert len(values) > 100
        assert counts == {"is_connected": 1, "laplacian": 1, "solve_spd": 1}

    def test_cached_values_match_fresh_graphs_bit_for_bit(self):
        g = random_connected_graph(np.random.default_rng(2), 30)
        for i, j, _ in g.edges:
            fresh = build_graph(g.n, g.edges)
            assert effective_resistance(g, i, j) == effective_resistance(fresh, i, j)
        assert global_resistance(g) == global_resistance(build_graph(g.n, g.edges))

    def test_cached_matrix_is_read_only(self):
        g = unit_cycle(5)
        effective_resistance(g, 0, 2)
        matrix, _ = _resistance_matrix(g)
        with pytest.raises(ValueError):
            matrix[0, 1] = 0.0
        assert effective_resistance(g, 0, 1).value == pytest.approx(0.8, rel=1e-14)

    def test_entry_dies_with_its_graph(self):
        g = unit_cycle(6)
        key = id(g)
        matrix = weakref.ref(_resistance_matrix(g)[0])
        assert key in _ELIMINATIONS
        del g
        gc.collect()
        assert matrix() is None
        assert key not in _ELIMINATIONS

    @pytest.mark.parametrize("g, error", [
        (build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]), DisconnectedGraphError),
        # connected, but the grounded Cholesky factorization breaks down
        (chorded([1.0, 1e16, 1.0, 1e16, 1.0, 1e16], 0, 3), NotPositiveDefiniteError),
        # connected, factorized, but R_12 comes out as exactly 0 (true value 1e-300)
        (chorded([1.0, 1e300, 1.0, 1e300], 0, 2), np.linalg.LinAlgError),
        (chorded([1e300, 1.0, 1e300, 1.0, 1.0, 1.0], 0, 3), np.linalg.LinAlgError),
    ], ids=["disconnected", "cholesky_breakdown", "zero_resistance", "zero_resistance_six"])
    def test_failed_elimination_raises_on_every_query(self, g, error):
        for _ in range(2):
            with pytest.raises(error):
                effective_resistance(g, 0, 1)
            with pytest.raises(error):
                global_resistance(g)
            with pytest.raises(error):
                metric_check(g)
            assert id(g) not in _ELIMINATIONS

    def test_ill_conditioning_warns_on_every_query(self):
        # off by 2.4e-8 relative; the residual (8.3e-9) says so
        g = chorded([1.0, 1e8, 1.0, 1e8, 1.0, 1e8], 0, 3)
        for _ in range(2):
            with pytest.warns(IllConditionedWarning):
                report = effective_resistance(g, 0, 1)
            assert report.foster_residual > FOSTER_RESIDUAL_LIMIT
            with pytest.warns(IllConditionedWarning):
                global_resistance(g)
            with pytest.warns(IllConditionedWarning):
                metric_check(g)


def relabelled_cycle(conductances, labels):
    """The cycle whose k-th edge, of conductance ``conductances[k]``, joins the
    vertices ``labels[k]`` and ``labels[k + 1]`` (mod n)."""
    n = len(conductances)
    return build_graph(n, [(int(labels[k]), int(labels[(k + 1) % n]), c) for k, c in enumerate(conductances)])


class TestArcRoute:
    """A cycle through all its vertices takes the arc route: no Laplacian, no LAPACK."""

    def test_every_pair_within_a_few_n_eps(self):
        # every arc is a sum of positive terms, so each pair is right to about 1.5 n eps
        rng = np.random.default_rng(18)
        eps = np.finfo(float).eps
        corpus = [list(c) for c in TABLE_CYCLES] + [[1e308] * 3, [1e-300, 1e-300, 4e-300]]
        for n in range(3, 21):
            decades = rng.uniform(0.0, 300.0, 3)
            corpus += [list(10.0 ** rng.uniform(-d / 2, d / 2, n)) for d in decades]
        for k, conductances in enumerate(corpus):
            n = len(conductances)
            labels = np.arange(n) if k % 2 == 0 else rng.permutation(n)
            g = relabelled_cycle(conductances, labels)
            want = series_parallel_resistances(conductances)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r, residual = _resistance_matrix(g)
            assert residual <= 2 * n * eps
            for p in range(n):
                for q in range(p + 1, n):
                    value = r[labels[p], labels[q]]
                    assert value == r[labels[q], labels[p]]
                    if want[p][q] >= np.finfo(float).tiny:
                        assert abs(value - want[p][q]) <= 2 * n * eps * want[p][q], (conductances, p, q)
                    else:  # a subnormal true value: two spacings of 2^-1074 cover the rounding
                        assert abs(value - want[p][q]) <= 2 * math.ulp(0.0), (conductances, p, q)

    def test_routes_agree_on_mild_cycles(self, monkeypatch):
        rng = np.random.default_rng(19)
        cycles = [random_cycle(rng, n, 1.0, 1e2) for n in range(3, 81)]
        arcs = [ohmlab.resistance._eliminate(g) for g in cycles]
        monkeypatch.setattr(ohmlab.resistance, "_cycle_walk", lambda g: None)
        for g, (r, residual) in zip(cycles, arcs):
            grounded, grounded_residual = ohmlab.resistance._eliminate(g)
            mask = ~np.eye(g.n, dtype=bool)
            assert np.all(np.abs(r - grounded)[mask] <= 1e-12 * grounded[mask]), g.n
            assert abs(residual - grounded_residual) <= 1e-12

    def test_one_walk_and_no_lapack_per_cycle(self, monkeypatch):
        g = random_cycle(np.random.default_rng(20), 40)
        counts = count_calls(monkeypatch, ohmlab.resistance,
                             ("_cycle_walk", "_arc_resistances", "is_connected", "laplacian", "solve_spd"))
        values = [effective_resistance(g, i, j).value for i in range(g.n) for j in range(i + 1, g.n)]
        global_resistance(g)
        assert metric_check(g)
        assert len(values) == 780
        assert counts == {"_cycle_walk": 1, "_arc_resistances": 1, "is_connected": 0, "laplacian": 0,
                          "solve_spd": 0}

    def test_power_of_two_scaling_moves_no_bit(self):
        g = random_cycle(np.random.default_rng(21), 17)
        r, residual = _resistance_matrix(g)
        for exponent in (-1000, -300, 1, 300, 1000):
            scaled, scaled_residual = _resistance_matrix(scale(g, 2.0 ** exponent))
            assert np.array_equal(scaled, np.ldexp(r, -exponent))
            assert scaled_residual == residual

    @pytest.mark.parametrize("g", [
        build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]),
        build_graph(7, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0),
                        (3, 6, 1.0)]),
    ], ids=["two_triangles", "triangle_and_square"])
    def test_disjoint_cycles_are_disconnected(self, g):
        # every vertex has two neighbours and there are n edges, but the walk from 0 misses some
        assert ohmlab.resistance._cycle_walk(g) is None
        with pytest.raises(DisconnectedGraphError):
            effective_resistance(g, 0, 1)
        with pytest.raises(DisconnectedGraphError):
            global_resistance(g)

    @pytest.mark.parametrize("g", [
        build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]),  # triangle with a tail
        build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]),  # path
        build_graph(2, [(0, 1, 1.0)]),
        chorded([1.0] * 5, 0, 2),
    ], ids=["triangle_with_tail", "path", "one_edge", "chorded_five_cycle"])
    def test_other_graphs_take_the_cholesky_route(self, g):
        assert ohmlab.resistance._cycle_walk(g) is None

    @pytest.mark.parametrize("conductances, want", [
        ([1e-310, 1.0, 1.0], [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)]),
        ([5e-324, 1.0, 1.0, 1.0], [(0, 1, 3.0), (1, 2, 1.0), (0, 3, 1.0)]),
    ])
    def test_a_subnormal_edge_takes_the_cholesky_route(self, monkeypatch, conductances, want):
        # scaled by the largest conductance, the subnormal edge's resistance is
        # inf; the grounded elimination resolves these cycles exactly
        g = cycle(len(conductances), conductances)
        assert ohmlab.resistance._arc_resistances(*ohmlab.resistance._cycle_walk(g)) is None
        r, residual = ohmlab.resistance._eliminate(g)
        monkeypatch.setattr(ohmlab.resistance, "_cycle_walk", lambda g: None)
        grounded, grounded_residual = ohmlab.resistance._eliminate(g)
        assert np.array_equal(r, grounded) and residual == grounded_residual
        for i, j, value in want:
            assert r[i, j] == value


def benchmark_kind_graphs(seed):
    """Cycles and random connected graphs with 2n edges, n = 10-80, conductances
    log-uniform over four decades: the inputs of the benchmark's graph workload."""
    rng = np.random.default_rng(seed)
    graphs = []
    for k in range(24):
        n = int(rng.integers(10, 81))
        if k % 2 == 0:
            pairs = [(v, (v + 1) % n) for v in range(n)]
        else:
            order = rng.permutation(n)
            pairs = {tuple(sorted((int(order[v]), int(order[rng.integers(v)])))) for v in range(1, n)}
            while len(pairs) < 2 * n:
                i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
                pairs.add((i, j))
        weights = 10.0 ** rng.uniform(0.0, 4.0, len(pairs))
        graphs.append(build_graph(n, [(i, j, float(c)) for (i, j), c in zip(sorted(pairs), weights)]))
    return graphs


class TestFosterResidual:
    def test_silent_on_benchmark_kind_inputs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in benchmark_kind_graphs(31):
                report = effective_resistance(g, 0, 1)
                global_resistance(g)
                assert report.foster_residual < 1e-12

    def test_equals_the_edge_sum_form(self):
        eps = np.finfo(float).eps
        for g in benchmark_kind_graphs(32):
            residual = _resistance_matrix(g)[1]
            assert abs(residual - edge_sum_residual(g)) <= 4 * eps, g.n


def mpmath_resistances(g, digits):
    """All-pairs resistances from the grounded Laplacian inverted in mpmath."""
    with mpmath.workdps(digits):
        last = g.n - 1
        h = mpmath.zeros(last, last)
        for i, j, c in g.edges:
            for a, b in ((i, i), (j, j), (i, j), (j, i)):
                if a < last and b < last:
                    h[a, b] += c if a == b else -c
        green = h ** -1

        def entry(a, b):
            return green[a, b] if a < last and b < last else mpmath.mpf(0)

        return [[entry(a, a) + entry(b, b) - 2 * entry(a, b) for b in range(g.n)] for a in range(g.n)]


#: Item 8's table of ROADMAP cycles, plus the 1e32 4-cycle and the 1e16 breakdown.
TABLE_CYCLES = [
    (1.0, 1.0, 1.0, 1.0, 1.0, 1e12),
    (1.0, 1e12) * 3,
    (1.0, 1e14, 1.0, 1.0, 1e14, 1.0),
    (1.0, 1.0, 1.0, 1.0, 1.0, 1e16),
    (1.0, 1e300, 1.0, 1e300),
    (1.0, 1e8) * 3,
    (1.0, 1e16, 1e-16, 1.0),
    (1.0, 1e16) * 3,
]


def foster_corpus(seed=14, count=60):
    """(graph, decades of conductance ratio): cycles and random graphs with
    n = 3-8 and ratios 1e2-1e32, then the table cycles."""
    rng = np.random.default_rng(seed)
    corpus = []
    for k in range(count):
        n = int(rng.integers(3, 9))
        decades = float(rng.uniform(2.0, 32.0))
        lo, hi = 10.0 ** (-decades / 2), 10.0 ** (decades / 2)
        g = random_cycle(rng, n, lo, hi) if k % 2 == 0 else random_connected_graph(rng, n, lo, hi)
        corpus.append((g, decades))
    corpus += [(cycle(len(c), list(c)), math.log10(max(c) / min(c))) for c in TABLE_CYCLES]
    return corpus


class TestFosterCorpusGate:
    def test_warning_separates_wrong_from_exact(self, monkeypatch):
        # the residual is necessary, not sufficient: results between 1e-12 and
        # 1e-9 off may go either way, but a wrong one always warns, an exact one never;
        # the corpus cycles go to the Cholesky route too, as every graph did before the arc route
        monkeypatch.setattr(ohmlab.resistance, "_cycle_walk", lambda g: None)
        wrong = exact = failed = 0
        for g, decades in foster_corpus():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    r, _ = _resistance_matrix(g)
                except np.linalg.LinAlgError:
                    failed += 1
                    assert id(g) not in _ELIMINATIONS
                    continue
            warned = any(issubclass(w.category, IllConditionedWarning) for w in caught)
            want = mpmath_resistances(g, int(40 + 2 * decades))
            error = max(float(abs(r[a, b] - want[a][b]) / want[a][b])
                        for a in range(g.n) for b in range(g.n) if a != b)
            if error > 1e-9:
                wrong += 1
                assert warned, (g.edges, error)
            elif error < 1e-12:
                exact += 1
                assert not warned, (g.edges, error)
        # the corpus exercises all three outcomes
        assert wrong >= 5 and exact >= 30 and failed >= 2

    def test_cycles_on_the_arc_route_are_exact_and_silent(self):
        # the corpus cycles the Cholesky route gets wrong, or fails on, included
        cycles = [(g, decades) for g, decades in foster_corpus() if ohmlab.resistance._cycle_walk(g) is not None]
        assert len(cycles) >= 30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, decades in cycles:
                r, _ = _resistance_matrix(g)
                want = mpmath_resistances(g, int(40 + 2 * decades))
                error = max(float(abs(r[a, b] - want[a][b]) / want[a][b])
                            for a in range(g.n) for b in range(g.n) if a != b)
                assert error < 1e-12, (g.edges, error)


class TestOracle:
    def test_unit_three_cycle(self):
        assert effective_resistance_oracle(unit_cycle(3), 0, 1) == pytest.approx(
            2.0 / 3.0, rel=1e-14)

    def test_series_path(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert effective_resistance_oracle(g, 0, 2) == pytest.approx(2.0, rel=1e-14)

    def test_matches_resistance_matrix_route(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(3, 11))
            g = random_connected_graph(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            matrix = effective_resistance(g, int(i), int(j)).value
            grounded = effective_resistance_oracle(g, int(i), int(j))
            assert abs(matrix - grounded) <= 1e-10 * matrix

    def test_rejects_disconnected(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            effective_resistance_oracle(g, 0, 2)


def networkx_resistances(g):
    """All-pairs resistance distances from networkx's Laplacian pseudo-inverse."""
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_weighted_edges_from(g.edges)
    d = nx.resistance_distance(graph, weight="weight", invert_weight=False)
    return np.array([[d[a][b] for b in range(g.n)] for a in range(g.n)])


class TestNetworkxOracle:
    def test_every_resistance_query_matches_networkx(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(3, 31))
            g = random_connected_graph(rng, n)
            theirs = networkx_resistances(g)
            # the matrix metric_check tests, off its zero diagonal
            off = ~np.eye(n, dtype=bool)
            assert np.all(np.abs(_resistance_matrix(g)[0] - theirs)[off] <= 1e-10 * theirs[off])
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            assert effective_resistance(g, i, j).value == pytest.approx(theirs[i, j], rel=1e-10)
            rho = sum(theirs[a, b] for a, b, _ in g.edges)
            assert global_resistance(g) == pytest.approx(rho, rel=1e-10)


class TestGlobalResistance:
    def test_unit_three_cycle(self):
        assert global_resistance(unit_cycle(3)) == pytest.approx(2.0, abs=1e-13)

    def test_unit_four_cycle(self):
        assert global_resistance(unit_cycle(4)) == pytest.approx(3.0, abs=1e-13)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_unit_n_cycle(self, n):
        # every adjacent pair sees (n-1)/n by series-parallel reduction
        assert global_resistance(unit_cycle(n)) == pytest.approx(n - 1.0, rel=1e-12)

    def test_only_adjacent_pairs_counted(self):
        # the unit 4-cycle's diagonal distances (value 1) must not contribute
        assert global_resistance(unit_cycle(4)) < 4.0

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            global_resistance(build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]))


class TestThreeCycleRho:
    def test_unit_weights(self):
        assert cycle_rho_closed_form((1.0, 1.0, 1.0)) == 2.0

    def test_two_equal_family_point(self):
        # (3/8, 3/2, 3/2) is built to have rho = 2; direct substitution
        assert cycle_rho_closed_form((0.375, 1.5, 1.5)) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 3.0, 1e3])
    def test_scaling_law(self, alpha):
        assert cycle_rho_closed_form((alpha, alpha, alpha)) == pytest.approx(2.0 / alpha, rel=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(GraphError, match="positive"):
            cycle_rho_closed_form((1.0, 1.0, -1.0))

    def test_decreasing_in_each_conductance(self):
        # with two conductances fixed, rho strictly decreases in the third
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y = log_uniform(rng, 0.1, 10.0, size=2)
            grid = np.linspace(0.1, 5.0, 40)
            values = [cycle_rho_closed_form((z, y, x)) for z in grid]
            assert np.all(np.diff(values) < 0.0)


@pytest.mark.filterwarnings("error")
class TestCycleClosedForm:
    def test_unit_three_cycle(self):
        assert cycle_rho_closed_form([1.0, 1.0, 1.0]) == pytest.approx(2.0, rel=1e-15)

    def test_unit_four_cycle(self):
        assert cycle_rho_closed_form([1.0, 1.0, 1.0, 1.0]) == 3.0

    def test_matches_global_resistance_on_random_cycles(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(3, 13))
            g = random_cycle(rng, n)
            conducts = [c for _, _, c in sorted(g.edges, key=_cycle_edge_order(n))]
            closed = cycle_rho_closed_form(conducts)
            assert abs(closed - global_resistance(g)) <= 1e-11 * closed

    def test_agrees_with_three_cycle_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            c01, c02, c12 = log_uniform(rng, 1e-2, 1e2, size=3)
            closed = cycle_rho_closed_form([c01, c12, c02])
            explicit = 2.0 * (c01 + c02 + c12) / (c01 * c02 + c01 * c12 + c02 * c12)
            assert closed == pytest.approx(explicit, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e15, 1e-15, 1e155, 1e-155, 1e200, 1e-200, 1e300, 1e-300])
    def test_scale_free(self, alpha):
        # E sums products of resistances, so unscaled it underflows to 0 or
        # overflows to inf from about 1e155 on; scaled by a power of two it does not
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)
        corpus = [np.array([1.0, 2.0, 3.0])] + [log_uniform(rng, 1e-2, 1e2, size=int(rng.integers(3, 9)))
                                                for _ in range(200)]
        for c in corpus:
            want = cycle_rho_closed_form(c)
            assert abs(alpha * cycle_rho_closed_form(alpha * c) - want) <= 4 * eps * want

    def test_rejects_short_list(self):
        with pytest.raises(GraphError):
            cycle_rho_closed_form([1.0, 1.0])

    def test_rejects_non_positive(self):
        with pytest.raises(GraphError):
            cycle_rho_closed_form([1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [[np.inf, np.inf, np.inf], [np.inf, 1.0, 1.0], [1.0, np.nan, 1.0]])
    def test_rejects_non_finite(self, bad):
        # no cycle has these edges, so the closed form gives them no value
        with pytest.raises(GraphError, match="positive"):
            cycle_rho_closed_form(bad)
        with pytest.raises(GraphError):
            cycle(3, bad)

    @pytest.mark.parametrize("bad", [5.0, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]])
    def test_rejects_non_flat_input(self, bad):
        with pytest.raises(GraphError, match="flat sequence"):
            cycle_rho_closed_form(bad)


def _cycle_edge_order(n):
    def key(edge):
        i, j, _ = edge
        if (i, j) == (0, n - 1):
            return n - 1
        return i

    return key


class TestMetricCheck:
    def test_unit_three_cycle(self):
        assert metric_check(unit_cycle(3))

    def test_star_graph(self):
        g = build_graph(5, [(0, k, 1.0) for k in range(1, 5)])
        assert effective_resistance(g, 0, 1).value == pytest.approx(1.0, rel=1e-13)
        assert effective_resistance(g, 1, 2).value == pytest.approx(2.0, rel=1e-13)
        assert metric_check(g)

    def test_random_connected_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(3, 9)), c_lo=0.1, c_hi=10.0)
            assert metric_check(g)

    @pytest.mark.parametrize("alpha", [1e-6, 1e6])
    def test_slack_is_relative_to_resistance_scale(self, alpha):
        # an absolute slack flagged 9 of these 50 as violated at alpha = 1e-6
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = random_connected_graph(rng, 20)
            assert metric_check(scale(g, alpha))

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            metric_check(build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]))


class TestCorpusInvariants:
    def test_foster_identity(self):
        # classical check: sum over edges of c_e d_r(e) equals n - 1
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(3, 11))
            g = random_connected_graph(rng, n)
            total = sum(c * effective_resistance(g, i, j).value for i, j, c in g.edges)
            assert abs(total - (n - 1)) <= 1e-9

    def test_adjacent_resistance_bounded_by_direct_edge(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            for i, j, c in g.edges:
                assert effective_resistance(g, i, j).value <= (1.0 + 1e-12) / c

    def test_global_resistance_scaling(self):
        rng = np.random.default_rng(18)
        for alpha in (1e-3, 0.5, 7.0, 1e3):
            g = random_connected_graph(rng, 6)
            base = global_resistance(g)
            scaled = global_resistance(scale(g, alpha))
            assert abs(scaled * alpha - base) <= 1e-10 * base
