"""Graph construction, Laplacian assembly, energy form, scaling, file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmlab import (
    GraphError,
    GraphFormatError,
    WeightedGraph,
    build_graph,
    cycle,
    dump_graph,
    energy,
    is_connected,
    laplacian,
    load_graph,
    parse_graph,
    scale,
)

from conftest import log_uniform, random_connected_graph, random_cycle


def unit_three_cycle():
    return cycle(3, [1.0, 1.0, 1.0])


class TestBuildGraph:
    def test_unit_three_cycle(self):
        g = build_graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))

    def test_two_equal_family_point(self):
        # two equal conductances b = 3/2 force the third to b(2-b)/(2b-1) = 3/8
        b = 1.5
        third = b * (2 - b) / (2 * b - 1)
        assert third == 0.375
        g = build_graph(3, [(0, 1, third), (0, 2, b), (1, 2, b)])
        assert g.edges[0] == (0, 1, 0.375)

    def test_canonicalization_sorts_and_swaps(self):
        g = build_graph(4, [(3, 2, 1.0), (1, 0, 2.0), (0, 3, 0.5)])
        assert g.edges == ((0, 1, 2.0), (0, 3, 0.5), (2, 3, 1.0))

    @pytest.mark.parametrize("edges", [
        [(0, 1, -1.0), (0, 2, 1.0), (1, 2, 1.0)],
        [(0, 1, 0.0)],
        [(0, 1, float("nan"))],
    ])
    def test_rejects_non_positive_conductance(self, edges):
        with pytest.raises(GraphError, match="positive"):
            build_graph(3, edges)

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_loop(self):
        with pytest.raises(GraphError, match="loop"):
            build_graph(3, [(1, 1, 1.0)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(GraphError, match="range"):
            build_graph(3, [(0, 3, 1.0)])

    def test_rejects_small_n(self):
        with pytest.raises(GraphError):
            build_graph(1, [])

    @pytest.mark.parametrize("entry", [
        (0, 1.7, 1.0),
        (0.0, 1, 1.0),
        (0, 1),
        (0, 1, 1.0, 2.0),
        (0, "1", 1.0),
        (0, 1, "one"),
        (0, None, 1.0),
        5,
    ])
    def test_rejects_malformed_edge_tuple(self, entry):
        with pytest.raises(GraphError, match="edge must be"):
            build_graph(3, [entry])

    def test_accepts_numpy_integer_indices(self):
        g = build_graph(3, [(np.int64(0), np.int32(2), np.float64(1.5))])
        assert g.edges == ((0, 2, 1.5),)
        assert type(g.edges[0][1]) is int


class TestCycle:
    def test_unit_three_cycle(self):
        assert unit_three_cycle().edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))

    def test_edge_order_convention(self):
        g = cycle(4, [1.0, 2.0, 3.0, 4.0])
        # edge k joins k and k+1 mod n, so the wrap edge (0, 3) carries 4.0
        assert g.edges == ((0, 1, 1.0), (0, 3, 4.0), (1, 2, 2.0), (2, 3, 3.0))

    def test_rejects_two_cycle(self):
        with pytest.raises(GraphError):
            cycle(2, [1.0, 1.0])

    def test_rejects_wrong_count(self):
        with pytest.raises(GraphError, match="expected 3"):
            cycle(3, [1.0, 1.0])


class TestLaplacian:
    def test_unit_three_cycle_matrix(self):
        h = laplacian(unit_three_cycle()).entries
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.array_equal(h, expected)

    @pytest.mark.parametrize("b", [0.6, 1.0, 1.5, 1.9])
    def test_two_equal_family_diagonal(self, b):
        c01 = b * (2 - b) / (2 * b - 1)
        h = laplacian(build_graph(3, [(0, 1, c01), (0, 2, b), (1, 2, b)])).entries
        d = b * (b + 1) / (2 * b - 1)
        assert h[0, 0] == pytest.approx(d, rel=1e-15)
        assert h[1, 1] == pytest.approx(d, rel=1e-15)
        assert h[2, 2] == pytest.approx(2 * b, rel=1e-15)
        assert h[0, 1] == -c01
        assert h[0, 2] == -b

    def test_single_edge(self):
        h = laplacian(build_graph(2, [(0, 1, 5.0)])).entries
        assert np.array_equal(h, np.array([[5.0, -5.0], [-5.0, 5.0]]))

    def test_zero_row_sums_and_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 11)))
            h = laplacian(g).entries
            assert np.array_equal(h, h.T)
            assert np.max(np.abs(h.sum(axis=1))) <= 1e-12 * np.max(np.diag(h))

    def test_diagonal_overflow_rejected(self):
        # every conductance is finite, but two of them sum past the float range
        g = cycle(3, [1e308, 1e308, 1.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            laplacian(g)

    def test_entries_are_read_only(self):
        h = laplacian(unit_three_cycle()).entries
        with pytest.raises(ValueError):
            h[0, 0] = 0.0


def _loop_laplacian(g):
    """The per-edge loop ``laplacian`` replaced, kept as the bit-for-bit reference."""
    h = np.zeros((g.n, g.n))
    for i, j, c in g.edges:
        h[i, j] = -c
        h[j, i] = -c
        h[i, i] += c
        h[j, j] += c
    return h


def _assert_bit_identical(g):
    got = laplacian(g).entries
    want = _loop_laplacian(g)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLaplacianMatchesLoop:
    def test_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 41))
            ratio = 10.0 ** rng.uniform(0.0, 16.0)
            _assert_bit_identical(random_connected_graph(rng, n, c_lo=1.0, c_hi=ratio,
                                                         extra_edge_prob=rng.uniform(0.0, 1.0)))

    def test_cycles(self):
        rng = np.random.default_rng(32)
        for n in range(3, 81):
            _assert_bit_identical(random_cycle(rng, n, c_lo=1e-8, c_hi=1e8))

    def test_dense_graph_sums_in_edge_order(self):
        # every diagonal entry sums n - 1 conductances of mixed magnitude
        rng = np.random.default_rng(33)
        n = 60
        edges = [(i, j, float(log_uniform(rng, 1e-6, 1e6))) for i in range(n) for j in range(i + 1, n)]
        _assert_bit_identical(build_graph(n, edges))

    def test_single_edge(self):
        _assert_bit_identical(build_graph(2, [(0, 1, 0.1)]))
        _assert_bit_identical(build_graph(5, [(1, 3, 7.25)]))

    def test_edgeless_graph(self):
        g = build_graph(4, [])
        _assert_bit_identical(g)
        assert np.array_equal(laplacian(g).entries, np.zeros((4, 4)))

    def test_unsorted_edges(self):
        # the sum runs in stored edge order, sorted or not
        rng = np.random.default_rng(34)
        g = random_connected_graph(rng, 25)
        shuffled = WeightedGraph(n=g.n, edges=tuple(g.edges[k] for k in rng.permutation(len(g.edges))))
        _assert_bit_identical(shuffled)


class TestEnergy:
    def test_direct_evaluation(self):
        assert energy(unit_three_cycle(), [1.0, -1.0, 0.0]) == 6.0

    def test_constants_have_zero_energy(self):
        g = cycle(4, [1.0, 2.0, 3.0, 4.0])
        assert energy(g, [7.5] * 4) == 0.0

    def test_second_eigenvector_direction(self):
        assert energy(unit_three_cycle(), [1.0, 1.0, -2.0]) == 18.0

    def test_length_mismatch(self):
        with pytest.raises(GraphError, match="length"):
            energy(unit_three_cycle(), [1.0, 2.0])

    @given(st.lists(st.floats(-10, 10), min_size=5, max_size=5),
           st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_quadratic_form_and_shift_invariance(self, values, shift):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 5, c_lo=0.1, c_hi=10.0)
        f = np.asarray(values)
        e = energy(g, f)
        h = laplacian(g).entries
        quad = float(f @ (h @ f))
        # relative 1e-12 at the natural scale of the quadratic form, so the
        # zero-energy constant case is held to round-off rather than zero
        scale = np.linalg.norm(h, "fro") * (np.abs(f).max() + abs(shift) + 1.0) ** 2
        assert abs(e - quad) <= 1e-12 * max(e, scale)
        shifted = energy(g, f + shift)
        assert abs(shifted - e) <= 1e-12 * max(e, scale)


class TestScale:
    def test_doubling_halves_global_resistance(self):
        from ohmlab import global_resistance

        doubled = scale(unit_three_cycle(), 2.0)
        assert doubled.edges == cycle(3, [2.0, 2.0, 2.0]).edges
        assert global_resistance(doubled) == pytest.approx(1.0, abs=1e-14)

    def test_identity(self):
        g = cycle(3, [1.0, 2.0, 3.0])
        assert scale(g, 1.0) == g

    @pytest.mark.parametrize("alpha", [0.0, -2.0, float("inf")])
    def test_rejects_bad_factor(self, alpha):
        with pytest.raises(GraphError):
            scale(cycle(3, [1.0, 2.0, 3.0]), alpha)

    @pytest.mark.parametrize("alpha", [2.0, 0.5, 1024.0, 2.0 ** -7])
    def test_laplacian_commutes_with_power_of_two_scaling(self, alpha):
        rng = np.random.default_rng(17)
        g = random_connected_graph(rng, 7)
        assert np.array_equal(laplacian(scale(g, alpha)).entries,
                              alpha * laplacian(g).entries)

    def test_laplacian_scaling_general_alpha(self):
        # non-power-of-two factors commute only up to accumulation round-off
        rng = np.random.default_rng(18)
        g = random_connected_graph(rng, 7)
        for alpha in (3.0, 1.7, 1e3):
            got = laplacian(scale(g, alpha)).entries
            want = alpha * laplacian(g).entries
            assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


class TestIsConnected:
    def test_cycle_connected(self):
        assert is_connected(unit_three_cycle())

    def test_two_components(self):
        assert not is_connected(build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]))

    def test_single_edge_pair(self):
        assert is_connected(build_graph(2, [(0, 1, 1.0)]))

    def test_isolated_vertex(self):
        assert not is_connected(build_graph(3, [(0, 1, 1.0)]))


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        g = random_connected_graph(rng, 6)
        path = tmp_path / "graph.txt"
        path.write_text(dump_graph(g))
        assert load_graph(path) == g

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\nn 3\n0 1 1.0\n# middle comment\n0 2 1.0\n1 2 1.5e0\n"
        g = parse_graph(text)
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.5))

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("0 1 1.0\n")

    def test_bad_edge_line_number(self):
        with pytest.raises(GraphFormatError, match="line 4"):
            parse_graph("# c\nn 3\n0 1 1.0\n0 2\n")

    def test_non_numeric_conductance(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("n 3\n0 1 1.0\n0 2 abc\n")

    def test_non_integer_count(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("n x\n")

    def test_semantic_errors_from_builder(self):
        with pytest.raises(GraphError, match="duplicate"):
            parse_graph("n 3\n0 1 1.0\n1 0 2.0\n")
        with pytest.raises(GraphError, match="positive"):
            parse_graph("n 3\n0 1 -1.0\n")

    def test_empty_text(self):
        with pytest.raises(GraphFormatError):
            parse_graph("")
