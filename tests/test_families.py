"""Constant-resistance families, constraint solvers, catalogued figure data."""

import math

import numpy as np
import pytest

from ohmlab import (
    DISPUTED_REFERENCES,
    FIGURE_FAMILIES,
    FamilySpec,
    InfeasibleFamilyError,
    cycle,
    cycle_rho_closed_form,
    eigen_sym,
    figure_family,
    global_resistance,
    laplacian,
    monotonicity_check,
    reference_conductance,
    scan_family,
    solve_last_cycle_conductance,
    two_equal_eigenvalues,
    two_equal_family,
)
import ohmlab.cli
import ohmlab.cycles
import ohmlab.extremal
import ohmlab.families
from ohmlab.cli import main
from ohmlab.cycles import cycle_spectra, last_cycle_conductances, resistance_sums
from ohmlab.families import solve_third_conductance

from conftest import count_calls, log_uniform

GRID_B = np.linspace(0.51, 1.99, 200)


class TestTwoEqualFamily:
    def test_unit_point(self):
        point = two_equal_family(1.0)
        assert point.conductances == (1.0, 1.0, 1.0)
        assert point.rho == pytest.approx(2.0, abs=1e-13)
        assert np.allclose(point.eigenvalues, [0.0, 3.0, 3.0], atol=1e-10)
        assert np.allclose(point.products, [6.0, 6.0], atol=1e-9)

    def test_b_three_halves(self):
        point = two_equal_family(1.5)
        assert point.conductances == (0.375, 1.5, 1.5)
        assert np.allclose(point.eigenvalues[1:], [2.25, 4.5], atol=1e-10)

    @pytest.mark.parametrize("b", [0.5, 2.0, 0.3, 2.4, -1.0])
    def test_rejects_outside_open_interval(self, b):
        with pytest.raises(InfeasibleFamilyError):
            two_equal_family(b)

    def test_rho_consistency_across_grid(self):
        for b in GRID_B:
            point = two_equal_family(b)
            assert abs(point.rho - 2.0) <= 1e-10 * 2.0

    def test_eigen_matches_closed_forms_across_grid(self):
        for b in GRID_B:
            point = two_equal_family(b)
            ordered = two_equal_eigenvalues(b).ordered
            assert abs(point.eigenvalues[1] - ordered[0]) <= 1e-9
            assert abs(point.eigenvalues[2] - ordered[1]) <= 1e-9

    def test_fixed_eigenvectors_across_grid(self):
        # the same two vectors stay eigenvectors for every b, with closed-form
        # eigenvalues 3b/(2b-1) and 3b respectively
        v_a = np.array([1.0, -1.0, 0.0])
        v_b = np.array([1.0, 1.0, -2.0])
        for b in GRID_B:
            h = laplacian(cycle(3, (b * (2 - b) / (2 * b - 1), b, b))).entries
            lam_a = 3.0 * b / (2.0 * b - 1.0)
            lam_b = 3.0 * b
            scale = np.linalg.norm(h, "fro")
            assert np.linalg.norm(h @ v_a - lam_a * v_a) <= 1e-9 * scale * np.linalg.norm(v_a)
            assert np.linalg.norm(h @ v_b - lam_b * v_b) <= 1e-9 * scale * np.linalg.norm(v_b)


class TestTwoEqualEigenvalues:
    def test_unit_point_is_degenerate(self):
        assert two_equal_eigenvalues(1.0).values == (3.0, 3.0)

    def test_below_one_reverses_order(self):
        result = two_equal_eigenvalues(0.75)
        assert result.values == (4.5, 2.25)
        assert result.ordered == (2.25, 4.5)
        # for b <= 1 the smallest positive eigenvalue is 3b
        assert result.ordered[0] == 3.0 * 0.75

    def test_boundary_limit(self):
        result = two_equal_eigenvalues(2.0 - 1e-6)
        assert result.ordered[0] == pytest.approx(2.0, abs=1e-4)
        assert result.ordered[1] == pytest.approx(6.0, abs=1e-4)

    def test_lambda1_unimodal_peak_at_one(self):
        # increasing on (1/2, 1], decreasing on [1, 2), maximum at b = 1
        up = np.arange(0.502, 1.0 + 1e-12, 1e-3)
        lam_up = [two_equal_eigenvalues(b).ordered[0] for b in up]
        assert np.all(np.diff(lam_up) > 0.0)
        down = np.arange(1.0, 1.999, 1e-3)
        lam_down = [two_equal_eigenvalues(b).ordered[0] for b in down]
        assert np.all(np.diff(lam_down) < 0.0)

    def test_domain_error(self):
        with pytest.raises(InfeasibleFamilyError):
            two_equal_eigenvalues(0.5)


class TestSolveThirdConductance:
    def test_known_point(self):
        # (x, y) = (3/2, 1) at rho = 2 gives 2/3
        z = solve_third_conductance(1.5, 1.0, 2.0)
        assert z == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert cycle_rho_closed_form((z, 1.0, 1.5)) == pytest.approx(2.0, rel=1e-12)

    def test_symmetric_point(self):
        assert solve_third_conductance(1.0, 1.0, 2.0) == 1.0

    def test_infeasible_weak_pair(self):
        with pytest.raises(InfeasibleFamilyError, match="not positive"):
            solve_third_conductance(0.25, 0.25, 2.0)

    def test_vanishing_denominator(self):
        # 2 - rho(x+y) vanishes in conductance terms; in the resistance terms
        # of the cycle solver the missing resistance is exactly 0
        with pytest.raises(InfeasibleFamilyError, match="not positive"):
            solve_third_conductance(0.5, 0.5, 2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InfeasibleFamilyError):
            solve_third_conductance(-1.0, 1.0, 2.0)
        with pytest.raises(InfeasibleFamilyError):
            solve_third_conductance(1.0, 1.0, 0.0)

    def test_round_trip_property(self):
        # rho is feasible exactly between 2/(x+y) and 2(x+y)/(xy)
        rng = np.random.default_rng(21)
        for _ in range(10_000):
            x, y = log_uniform(rng, 1e-2, 1e2, size=2)
            lo = 2.0 / (x + y)
            hi = 2.0 * (x + y) / (x * y)
            rho = lo + (hi - lo) * rng.uniform(0.01, 0.99)
            z = solve_third_conductance(x, y, rho)
            assert abs(cycle_rho_closed_form((z, y, x)) - rho) <= 1e-12 * rho


@pytest.mark.filterwarnings("error")
class TestSolveLastCycleConductance:
    def test_unit_four_cycle(self):
        assert solve_last_cycle_conductance([1.0, 1.0, 1.0], 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_reciprocal_pair_point(self):
        # known (1/c, c, 1) at c = 2: resistances sum S = 7/2, so 8/7
        z = solve_last_cycle_conductance([0.5, 2.0, 1.0], 3.0)
        assert z == pytest.approx(8.0 / 7.0, rel=1e-14)
        assert cycle_rho_closed_form([0.5, 2.0, 1.0, z]) == pytest.approx(3.0, rel=1e-12)

    def test_overflowing_conductance_raises(self):
        # the solved resistance is positive but below 1/DBL_MAX; the row is
        # NaN in the grid core, as an infeasible one is
        known, rho = [1e300, 1e300], 1e-300 * (1 + 4e-15)
        with pytest.raises(InfeasibleFamilyError, match="positive but its conductance overflows"):
            solve_last_cycle_conductance(known, rho)
        free, _ = last_cycle_conductances([known, [1e300, 1e301]], rho)
        assert math.isnan(free[0]) and 0.0 < free[1] < math.inf

    def test_tiny_resistance_at_unit_scale(self):
        # the same cycle at scale 1 keeps its finite answer
        assert solve_last_cycle_conductance([1.0, 1.0], 1 + 4e-15) == 3.752999689475408e14

    def test_infeasible_weak_edges(self):
        with pytest.raises(InfeasibleFamilyError, match="not positive"):
            solve_last_cycle_conductance([0.1, 0.1, 0.1], 3.0)

    @pytest.mark.parametrize("bad", [5.0, [[1.0, 2.0], [3.0, 4.0]]])
    def test_rejects_non_flat_input(self, bad):
        with pytest.raises(InfeasibleFamilyError, match="flat sequence"):
            solve_last_cycle_conductance(bad, 3.0)

    @pytest.mark.parametrize("bad", [[math.inf, 1.0], [1.0, math.inf], [math.inf, math.inf], [math.nan, 1.0]])
    def test_rejects_non_finite(self, bad):
        # an infinite or NaN conductance is no edge, before any denominator is formed
        with pytest.raises(InfeasibleFamilyError, match="positive"):
            solve_last_cycle_conductance(bad, 2.0)

    def test_round_trip_property(self):
        # feasible rho lies between max(0, S - P/S) and 2S in resistance terms
        rng = np.random.default_rng(22)
        for _ in range(2000):
            n = int(rng.integers(3, 9))
            known = log_uniform(rng, 1e-1, 1e1, size=n - 1)
            r = 1.0 / known
            s = float(r.sum())
            p = float(r @ r)
            lo = max(0.0, s - p / s)
            hi = 2.0 * s
            rho = lo + (hi - lo) * rng.uniform(0.01, 0.99)
            z = solve_last_cycle_conductance(known.tolist(), rho)
            got = cycle_rho_closed_form(known.tolist() + [z])
            assert abs(got - rho) <= 1e-11 * rho

    @pytest.mark.parametrize("alpha", [1e15, 1e-15, 1e155, 1e-155, 1e200, 1e-200, 1e300, 1e-300])
    def test_scale_free(self, alpha):
        # the denominator floor is relative to S, and E neither underflows nor
        # overflows, so scaled knowns and rho give the scaled answer; the first
        # cycle at alpha = 1e15 is ([1e15, 1e15], 2e-15), whose answer is 1e15
        rng = np.random.default_rng(23)
        corpus = [np.ones(3)] + [log_uniform(rng, 1e-1, 1e1, size=int(rng.integers(3, 9)))
                                 for _ in range(200)]
        for c in corpus:
            rho = cycle_rho_closed_form(c)
            want = solve_last_cycle_conductance(c[:-1], rho)
            got = solve_last_cycle_conductance(alpha * c[:-1], rho / alpha) / alpha
            assert abs(got - want) <= 1e-12 * want


class TestFigureFamilies:
    def test_fig1_unit_point_products(self):
        point = figure_family("fig1", 1.0)
        assert np.allclose(point.products, [6.0, 6.0], atol=1e-9)

    def test_fig1_matches_two_equal_family(self):
        for b in (0.6, 1.0, 1.4, 1.9):
            a = figure_family("fig1", b)
            direct = two_equal_family(b)
            assert np.allclose(a.conductances, direct.conductances, rtol=1e-12)
            assert np.allclose(a.eigenvalues, direct.eigenvalues, atol=1e-10)

    def test_fig3_solver_agrees_with_catalogued_formula(self):
        point = figure_family("fig3", 0.75)
        assert point.conductances[0] == 0.75
        assert point.conductances[2] == 0.75
        assert point.conductances[1] == pytest.approx(15.0 / 8.0, abs=1e-12)
        assert point.conductances[1] == pytest.approx(
            reference_conductance("fig3", 0.75), abs=1e-12)
        assert cycle_rho_closed_form(point.conductances) == pytest.approx(2.0, rel=1e-12)

    def test_fig2_solver_beats_catalogued_formula(self):
        point = figure_family("fig2", 1.0)
        assert point.conductances[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        # the catalogued value 1 fails the rho = 2 constraint: it gives 7/4
        ref = reference_conductance("fig2", 1.0)
        assert ref == 1.0
        assert cycle_rho_closed_form((ref, point.conductances[1], point.conductances[2])) == pytest.approx(
            7.0 / 4.0, rel=1e-14)

    def test_fig4_unit_point(self):
        point = figure_family("fig4", 1.0)
        assert np.allclose(point.conductances, [1.0, 1.0, 1.0, 1.0], rtol=1e-12)
        assert np.allclose(point.products, [6.0, 6.0, 12.0], atol=1e-8)
        # the catalogued expression gives 1/3 there, which breaks rho = 3
        assert reference_conductance("fig4", 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_fig4_reciprocal_pair_point(self):
        point = figure_family("fig4", 2.0)
        assert point.conductances[0] == pytest.approx(8.0 / 7.0, rel=1e-12)
        assert point.conductances[1:] == pytest.approx((0.5, 2.0, 1.0))

    def test_fig5_unit_point(self):
        point = figure_family("fig5", 1.0)
        assert np.allclose(point.conductances, [1.0, 1.0, 1.0, 1.0], rtol=1e-12)
        assert reference_conductance("fig5", 1.0) is None

    @pytest.mark.parametrize("family,grid", [
        ("fig1", np.linspace(0.6, 1.9, 30)),
        ("fig2", np.linspace(0.2, 2.8, 30)),
        ("fig3", np.linspace(0.3, 3.0, 30)),
        ("fig4", np.linspace(0.4, 2.5, 30)),
        ("fig5", np.linspace(0.4, 2.5, 30)),
    ])
    def test_rho_consistency_invariant(self, family, grid):
        target = FIGURE_FAMILIES[family].target_rho
        for param in grid:
            point = figure_family(family, param)
            assert abs(point.rho - target) <= 1e-10 * target

    def test_fig1_fig3_references_agree_with_solver_on_grids(self):
        for family, grid in (("fig1", np.linspace(0.6, 1.9, 25)),
                             ("fig3", np.linspace(0.3, 3.0, 25))):
            solved_edge = FIGURE_FAMILIES[family].solved_edge
            for param in grid:
                point = figure_family(family, param)
                ref = reference_conductance(family, param)
                assert abs(point.conductances[solved_edge] - ref) <= 1e-12 * ref

    def test_fig2_fig4_references_disagree_somewhere(self):
        for family, param in (("fig2", 0.5), ("fig4", 2.0)):
            solved_edge = FIGURE_FAMILIES[family].solved_edge
            point = figure_family(family, param)
            ref = reference_conductance(family, param)
            assert abs(point.conductances[solved_edge] - ref) > 1e-3

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleFamilyError):
            figure_family("fig1", 2.5)
        with pytest.raises(InfeasibleFamilyError):
            figure_family("fig2", 3.2)
        for family in ("fig4", "fig5"):  # their fixed edge 1/c has no value at c = 0
            with pytest.raises(InfeasibleFamilyError, match="divides by zero"):
                figure_family(family, 0.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            figure_family("fig9", 1.0)

    def test_eigenvalues_match_numpy_eigvalsh(self):
        point = figure_family("fig4", 1.7)
        spec = eigen_sym(laplacian(cycle(3, (1.0, 1.0, 1.0))))
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        h = laplacian(_cycle_graph_of(point)).entries
        theirs = np.linalg.eigvalsh(h)
        assert np.allclose(point.eigenvalues, theirs, atol=1e-10)


def _cycle_graph_of(point):
    return cycle(len(point.conductances), list(point.conductances))


#: The benchmark's figure grids at the outer ends of its parameter ranges, 600 points each.
BENCHMARK_GRIDS = {
    "fig1": np.linspace(0.505, 1.995, 600),
    "fig2": np.linspace(0.01, 2.99, 600),
    "fig3": np.linspace(0.26, 12.0, 600),
    "fig4": np.linspace(0.1, 10.0, 600),
    "fig5": np.linspace(0.2, 10.0, 600),
}


class TestCycleSpectra:
    @pytest.mark.parametrize("family", sorted(BENCHMARK_GRIDS))
    def test_scan_rows_are_figure_points(self, family):
        grid = BENCHMARK_GRIDS[family]
        assert scan_family(family, grid) == [figure_family(family, p) for p in grid]

    @pytest.mark.parametrize("family", sorted(BENCHMARK_GRIDS))
    def test_benchmark_grids_match_eigen_sym_and_global_resistance(self, family):
        for point in scan_family(family, BENCHMARK_GRIDS[family]):
            g = _cycle_graph_of(point)
            values = eigen_sym(laplacian(g)).eigenvalues
            rho = global_resistance(g)
            assert abs(point.rho - rho) <= 1e-12 * rho
            assert np.all(np.abs(np.array(point.eigenvalues) - values) <= 1e-12 * values[-1])
            for product, value in zip(point.products, values[1:]):
                assert abs(product - value * rho) <= 1e-12 * value * rho

    def test_rows_are_independent_cycles(self):
        rng = np.random.default_rng(23)
        for n in (3, 4, 7):
            conductances = log_uniform(rng, 1e-2, 1e2, size=(20, n))
            eigenvalues, rho = cycle_spectra(conductances)
            assert eigenvalues.shape == (20, n) and rho.shape == (20,)
            for row, values, rho_k in zip(conductances.tolist(), eigenvalues, rho):
                alone, (rho_alone,) = cycle_spectra([row])
                assert np.array_equal(alone[0], values) and rho_alone == rho_k
                assert rho_k == pytest.approx(cycle_rho_closed_form(row), rel=1e-15)

    def test_rho_scales_exactly_by_powers_of_two(self):
        # c -> 2^k c maps rho -> 2^-k rho bit for bit, out to where E = sum
        # of resistance products would underflow or overflow unscaled
        rng = np.random.default_rng(29)
        conductances = log_uniform(rng, 1e-2, 1e2, size=(10, 5))
        _, rho = cycle_spectra(conductances)
        for k in (-1000, -520, 520, 1000):
            _, scaled = cycle_spectra(np.ldexp(conductances, k))
            assert np.array_equal(scaled, np.ldexp(rho, -k))

    def test_overflowing_diagonal_rejected(self):
        # every conductance is finite, but two of them sum past the float range
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            cycle_spectra([[1e308, 1e308, 1.0]])


class TestFamilySpec:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target rho"):
            FamilySpec("bad", 3, ((0, float), (1, float)), 2, 0.0)

    def test_rejects_incomplete_fixing(self):
        with pytest.raises(ValueError, match="exactly one"):
            FamilySpec("bad", 3, ((0, float),), 2, 2.0)
        with pytest.raises(ValueError, match="exactly one"):
            FamilySpec("bad", 3, ((0, float), (2, float)), 2, 2.0)


class TestOneSolvePerGrid:
    """A grid makes one solve and one series sum per stack, never one per point."""

    @pytest.mark.parametrize("family", sorted(BENCHMARK_GRIDS))
    def test_scan_family(self, monkeypatch, family):
        counts = count_calls(monkeypatch, ohmlab.families,
                             ("last_cycle_conductances", "solve_last_cycle_conductance", "cycle_spectra"))
        sums = count_calls(monkeypatch, ohmlab.cycles, ("resistance_sums",))
        assert len(BENCHMARK_GRIDS[family]) == 600
        assert scan_family(family, BENCHMARK_GRIDS[family])
        assert counts == {"last_cycle_conductances": 1, "solve_last_cycle_conductance": 0, "cycle_spectra": 1}
        # the solve and the cycle_spectra call behind the realized points
        assert sums == {"resistance_sums": 2}

    def test_monotonicity_check(self, monkeypatch):
        counts = count_calls(monkeypatch, ohmlab.extremal, ("last_cycle_conductances", "cycle_spectra"))
        grid = np.linspace(1.2, 0.98 * 1.2 / 0.2, 400)
        assert monotonicity_check("lemma43a", 1.2, grid).ok
        assert counts == {"last_cycle_conductances": 1, "cycle_spectra": 1}

    def test_figure_reference_column(self, monkeypatch, tmp_path):
        cli_counts = count_calls(monkeypatch, ohmlab.cli, ("feasible_grid", "cycle_rhos"))
        family_counts = count_calls(monkeypatch, ohmlab.families,
                                    ("last_cycle_conductances", "cycle_spectra", "CyclePoint"))
        sums = count_calls(monkeypatch, ohmlab.cycles, ("resistance_sums",))
        out = tmp_path / "fig2.csv"
        assert main(["figure", "fig2", "0.01", "2.99", "600", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 600 + 2
        # one solve and one cycle_spectra call for the grid, one rho call for
        # the reference column, and no per-row point
        assert cli_counts == {"feasible_grid": 1, "cycle_rhos": 1}
        assert family_counts == {"last_cycle_conductances": 1, "cycle_spectra": 1, "CyclePoint": 0}
        assert sums == {"resistance_sums": 3}

    # fig2 is test_figure_reference_column
    @pytest.mark.parametrize("family", ["fig1", "fig3", "fig4", "fig5"])
    def test_figure_command(self, monkeypatch, tmp_path, family):
        cli_counts = count_calls(monkeypatch, ohmlab.cli, ("feasible_grid", "cycle_rhos"))
        family_counts = count_calls(monkeypatch, ohmlab.families,
                                    ("last_cycle_conductances", "cycle_spectra", "CyclePoint"))
        sums = count_calls(monkeypatch, ohmlab.cycles, ("resistance_sums",))
        grid = BENCHMARK_GRIDS[family].tolist()
        out = tmp_path / f"{family}.csv"
        assert main(["figure", family, repr(grid[0]), repr(grid[-1]), str(len(grid)), "--out", str(out)]) == 0
        disputed = family in DISPUTED_REFERENCES
        assert cli_counts == {"feasible_grid": 1, "cycle_rhos": int(disputed)}
        assert family_counts == {"last_cycle_conductances": 1, "cycle_spectra": 1, "CyclePoint": 0}
        assert sums == {"resistance_sums": 2 + int(disputed)}


def _series_sums_loop(conductances):
    """(S, E, exponent) by the left-to-right loop that ``resistance_sums`` replaced."""
    resistances = [1.0 / c for c in conductances]
    total = 0.0
    for r in resistances:
        total += r
    _, exponent = math.frexp(total)
    total = pairs = 0.0
    for r in resistances:
        r = math.ldexp(r, -exponent)
        pairs += r * total
        total += r
    return total, pairs, exponent


class TestStackedRowsMatchOneRowCalls:
    """Each row of a stacked call gives bit for bit what a one-row call gives, n = 3-12.

    numpy sums 8 or more entries pairwise, so the rows of an n >= 8 stack may
    differ by round-off from the left-to-right loop the series sums used to
    run; up to 7 entries they match that loop bit for bit.
    """

    @pytest.mark.parametrize("n", range(3, 13))
    def test_resistance_sums(self, n):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(40 + n)
        stack = log_uniform(rng, 1e-3, 1e3, size=(50, n))
        total, pairs, exponents = resistance_sums(stack)
        for k, row in enumerate(stack.tolist()):
            stacked = (float(total[k]), float(pairs[k]), int(exponents[k]))
            alone = resistance_sums(row)
            assert (float(alone[0]), float(alone[1]), int(alone[2])) == stacked
            loop = _series_sums_loop(row)
            if n < 8:
                assert loop == stacked
            else:
                for ours, theirs in ((total[k], loop[0]), (pairs[k], loop[1])):
                    ours, theirs = np.ldexp(ours, exponents[k]), math.ldexp(theirs, loop[2])
                    assert abs(ours - theirs) <= 4 * n * eps * theirs

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [3, 6, 9, 12])
    def test_resistance_sums_with_rows_summed_again(self, n):
        # rows with a subnormal conductance sum past the float range and are
        # summed again; the others, 1e-300 included, keep the bits a stack
        # without subnormals gives them
        rng = np.random.default_rng(50 + n)
        stack = log_uniform(rng, 1e-3, 1e3, size=(40, n))
        stack[::4, 0] = np.ldexp(stack[::4, 0], -1060)
        stack[1::8, 1] = 1e-300
        total, pairs, exponents = resistance_sums(stack)
        assert np.isfinite(total).all() and np.isfinite(pairs).all()
        for k, row in enumerate(stack.tolist()):
            alone = resistance_sums(row)
            assert (float(alone[0]), float(alone[1]), int(alone[2])) == (total[k], pairs[k], exponents[k])
        normal = np.ones(len(stack), dtype=bool)
        normal[::4] = False
        for got, want in zip((total, pairs, exponents), resistance_sums(stack[normal])):
            assert np.array_equal(got[normal], want)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_solver_core(self, n):
        rng = np.random.default_rng(60 + n)
        known = log_uniform(rng, 1e-1, 1e1, size=(60, n - 1))
        # rho is feasible below 2S only, S the sum of the known resistances, so
        # the median of 2S leaves about half of the rows infeasible
        target = float(np.median(2.0 * (1.0 / known).sum(axis=1)))
        free, diagnostics = last_cycle_conductances(known, target)
        assert np.isnan(free).any() and not np.isnan(free).all()
        for k, row in enumerate(known.tolist()):
            (alone,), alone_diagnostics = last_cycle_conductances([row], target)
            assert np.array_equal(alone, free[k], equal_nan=True)
            for one, stacked in zip(alone_diagnostics, diagnostics):
                assert np.array_equal(one[0], stacked[k], equal_nan=True)
            if not math.isnan(alone):
                assert solve_last_cycle_conductance(row, target) == alone
