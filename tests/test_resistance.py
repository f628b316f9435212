"""Resistance distance routes, global resistance, closed forms, metric checks."""

import gc
import weakref

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
    laplacian,
    metric_check,
    scale,
)
import ohmlab.resistance
from ohmlab.linalg import solve_spd
from ohmlab.resistance import ILL_CONDITIONED_PIVOT_RATIO, _ELIMINATIONS, _resistance_matrix

from conftest import count_calls, log_uniform, random_connected_graph, random_cycle


def unit_cycle(n):
    return cycle(n, [1.0] * n)


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

    def test_ill_conditioning_warning(self):
        g = cycle(4, [1.0, 1e16, 1e-16, 1.0])
        with pytest.warns(IllConditionedWarning):
            effective_resistance(g, 0, 1)

    def test_reports_pivot_ratio(self):
        g = cycle(4, [1.0, 2.0, 3.0, 4.0])
        # vertex 3 has the largest degree (7) and is grounded
        _, want = solve_spd(laplacian(g).entries[:3, :3], np.eye(3), return_pivot_ratio=True)
        report = effective_resistance(g, 0, 2)
        assert report.pivot_ratio == want
        assert 1.0 <= report.pivot_ratio <= ILL_CONDITIONED_PIVOT_RATIO


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

    @pytest.mark.parametrize("g", [
        build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]),
        # connected, but the grounded Cholesky factorization breaks down
        cycle(6, [1.0, 1e16, 1.0, 1e16, 1.0, 1e16]),
    ], ids=["disconnected", "cholesky_breakdown"])
    def test_failed_elimination_raises_on_every_query(self, g):
        for _ in range(2):
            with pytest.raises(DisconnectedGraphError):
                effective_resistance(g, 0, 1)
            with pytest.raises(DisconnectedGraphError):
                global_resistance(g)
            with pytest.raises(DisconnectedGraphError):
                metric_check(g)
            assert id(g) not in _ELIMINATIONS

    def test_ill_conditioning_warns_on_every_query(self):
        g = cycle(4, [1.0, 1e16, 1e-16, 1.0])
        for _ in range(2):
            with pytest.warns(IllConditionedWarning):
                report = effective_resistance(g, 0, 1)
            assert report.pivot_ratio > ILL_CONDITIONED_PIVOT_RATIO
            with pytest.warns(IllConditionedWarning):
                global_resistance(g)
            with pytest.warns(IllConditionedWarning):
                metric_check(g)


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
