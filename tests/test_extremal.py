"""Product-bound verification, baselines, scans, monotonicity, and the search."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmlab import (
    GraphError,
    cycle,
    eigen_sym,
    global_resistance,
    laplacian,
    monotonicity_check,
    scale,
    scan_family,
    search_counterexample,
    solve_last_cycle_conductance,
    unit_cycle_baseline,
    verify_theorem,
)
from ohmlab.cycles import cycle_spectra, product_evaluator
from ohmlab.extremal import _nelder_mead, _restart_draws

from conftest import log_uniform


def _scalar_nelder_mead(fn, initial_simplex, max_iters):
    """One-lane reference: (best point, best value, iterations, evaluations, nonfinite).

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5; stops when the
    squared simplex diameter drops below 1e-18.
    """
    calls = nonfinite = 0

    def f(x):
        nonlocal calls, nonfinite
        value = fn(x)
        calls += 1
        nonfinite += not math.isfinite(value)
        return value

    points = np.array(initial_simplex, dtype=float)
    values = np.array([f(p) for p in points])
    iterations = 0
    while iterations < max_iters:
        order = np.argsort(values, kind="stable")
        points, values = points[order], values[order]
        diff = points[:, None, :] - points[None, :, :]
        if float((diff * diff).sum(axis=-1).max()) < 1e-18:
            break
        iterations += 1
        centroid = points[:-1].mean(axis=0)
        direction = centroid - points[-1]
        reflected = centroid + direction
        f_reflected = f(reflected)
        if values[0] <= f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * direction
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * direction
            f_contracted = f(contracted)
            if f_contracted <= f_reflected:
                points[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = centroid - 0.5 * direction
            f_contracted = f(contracted)
            if f_contracted < values[-1]:
                points[-1], values[-1] = contracted, f_contracted
                continue
        points[1:] = points[0] + 0.5 * (points[1:] - points[0])
        values[1:] = [f(p) for p in points[1:]]
    best = int(np.argsort(values, kind="stable")[0])
    return points[best], float(values[best]), iterations, calls, nonfinite


class TestVerifyTheorem:
    def test_equal_weights_give_equality(self):
        report = verify_theorem([1.0, 1.0, 1.0])
        assert report.lambda1_rho == pytest.approx(6.0, abs=1e-9)
        assert report.lambdamax_rho == pytest.approx(6.0, abs=1e-9)
        assert report.lower_ok and report.upper_ok and report.equality

    def test_scaled_equal_weights_keep_equality(self):
        report = verify_theorem([2.0, 2.0, 2.0])
        assert report.equality

    def test_two_equal_point(self):
        report = verify_theorem([0.375, 1.5, 1.5])
        assert report.lambda1_rho == pytest.approx(4.5, abs=1e-9)
        assert report.lambdamax_rho == pytest.approx(9.0, abs=1e-9)
        assert report.lower_ok and report.upper_ok
        assert not report.equality

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            verify_theorem([1.0, 1.0])
        with pytest.raises(ValueError):
            verify_theorem([1.0, 1.0, 1.0], tol=0.0)

    def test_fuzz_bound_holds(self):
        rng = np.random.default_rng(30)
        for _ in range(400):
            conducts = log_uniform(rng, 1e-3, 1e3, size=3)
            report = verify_theorem(conducts.tolist(), tol=1e-7)
            assert report.lower_ok
            assert report.upper_ok
            if report.equality:
                assert conducts.max() / conducts.min() < 1.0 + 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("conductances", [(1e-320, 1.0, 1.0), (1e-310, 1.0, 1.0), (1e308, 1.0, 1e308),
                                              (5e-324, 1.0, 1.0)])
    def test_subnormal_scaled_conductance_resolves(self, conductances):
        # one conductance is subnormal, or turns subnormal when the largest is
        # scaled into [1/2, 1); the other two edges form a unit path. Halved,
        # 5e-324 would round to 0, so that cycle is computed unscaled
        report = verify_theorem(conductances)
        assert report.lambda1_rho == pytest.approx(4.0, rel=1e-9)
        assert report.lambdamax_rho == pytest.approx(12.0, rel=1e-9)
        assert report.lower_ok and report.upper_ok and not report.equality

    @pytest.mark.filterwarnings("error")
    def test_extreme_ratio_products_resolve(self):
        # an eigensolve gave lambda_1 rho = 2 on the first, its error being about
        # eps lambda_max, and NaN on the second; mpmath gives these values
        cases = [((1e200, 1.0, 1e-200), 3.0, 4e200), ((1e308, 5e-324, 1e308), 4.0, 12.0)]
        for conductances, low, high in cases:
            report = verify_theorem(conductances)
            assert report.lambda1_rho == pytest.approx(low, rel=4 * np.finfo(float).eps)
            assert report.lambdamax_rho == pytest.approx(high, rel=4 * np.finfo(float).eps)
            assert report.lower_ok and report.upper_ok and not report.equality

    @pytest.mark.filterwarnings("error")
    def test_product_past_float_range_raises(self):
        # lambda_2 rho is about 1e600 here; lambda_1 rho is never past the range
        with pytest.raises(np.linalg.LinAlgError, match="exceeds the float range"):
            verify_theorem((1e300, 1e-300, 1e-300))
        with pytest.raises(np.linalg.LinAlgError, match="exceeds the float range"):
            verify_theorem((1.0, 5e-324, 5e-324))

    @pytest.mark.filterwarnings("error")
    def test_closed_form_matches_mpmath_on_random_triangles(self):
        # each conductance in 1e+-6: taken from an eigensolve, whose lambda_1 is
        # off by about eps lambda_max, the products of 228 of these 2,000 could
        # not be resolved to the default tolerance; the closed form refuses none
        rng = np.random.default_rng(39)
        eps = np.finfo(float).eps
        with mpmath.workdps(60):
            for conducts in 10.0 ** rng.uniform(-6.0, 6.0, size=(2000, 3)):
                report = verify_theorem(conducts.tolist())
                a, b, c = (mpmath.mpf(float(x)) for x in conducts)
                s1, s2 = a + b + c, a * b + b * c + c * a
                # the roots of lambda^2 - 2 s1 lambda + 3 s2, and rho in series-parallel resistances
                root = mpmath.sqrt(s1 * s1 - 3 * s2)
                r = [1 / x for x in (a, b, c)]
                rho = sum(x * (sum(r) - x) for x in r) / sum(r)
                assert abs(report.lambda1_rho - (s1 - root) * rho) <= 4 * eps * report.lambda1_rho
                assert abs(report.lambdamax_rho - (s1 + root) * rho) <= 4 * eps * report.lambdamax_rho
                assert abs(report.rho - rho) <= 4 * eps * report.rho

    def test_rejects_infinite_conductance(self):
        with pytest.raises(GraphError, match="finite"):
            verify_theorem([math.inf, 1.0, 1.0])

    def test_matches_eigen_sym_and_global_resistance(self):
        # the benchmark's verify corpus: ratios up to 1e4
        rng = np.random.default_rng(36)
        for conducts in 10.0 ** rng.uniform(-2.0, 2.0, size=(100, 3)):
            report = verify_theorem(conducts.tolist())
            g = cycle(3, conducts.tolist())
            values = eigen_sym(laplacian(g)).eigenvalues
            rho = global_resistance(g)
            assert abs(report.rho - rho) <= 1e-12 * rho
            assert abs(report.lambda1_rho - values[1] * rho) <= 1e-12 * values[1] * rho
            assert abs(report.lambdamax_rho - values[2] * rho) <= 1e-12 * values[2] * rho

    def test_product_scale_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            conducts = log_uniform(rng, 1e-2, 1e2, size=3)
            base = verify_theorem(conducts.tolist())
            for alpha in (1e-3, 1.0, 1e3):
                scaled = verify_theorem((alpha * conducts).tolist())
                assert abs(scaled.lambda1_rho - base.lambda1_rho) <= 1e-9 * base.lambda1_rho
                assert abs(scaled.lambdamax_rho - base.lambdamax_rho) <= 1e-9 * base.lambdamax_rho

    @pytest.mark.filterwarnings("error")
    def test_power_of_two_scale_gives_identical_products(self):
        # verify computes on conductances scaled by a power of two, so the same
        # cycle at 2^k gives the same products bit for bit and rho times 2^-k
        rng = np.random.default_rng(37)
        for conducts in log_uniform(rng, 1e-4, 1e4, size=(40, 3)):
            base = verify_theorem(conducts.tolist())
            for k in (-1000, -400, -1, 1, 400, 1000):
                scaled = verify_theorem(np.ldexp(conducts, k).tolist())
                assert (scaled.lambda1_rho, scaled.lambdamax_rho) == (base.lambda1_rho, base.lambdamax_rho)
                assert scaled.rho == math.ldexp(base.rho, -k)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c,rho", [(1e308, 2e-308), (1e-320, math.inf)])
    def test_extreme_equal_weights(self, c, rho):
        # the Laplacian of 1e308 overflows unscaled; the rho of 1e-320 is
        # beyond the float range, while its products are not
        report = verify_theorem([c, c, c])
        assert report.equality and report.rho == rho


class TestUnitCycleBaseline:
    def test_three_cycle(self):
        base = unit_cycle_baseline(3)
        assert base == pytest.approx((3.0, 3.0, 2.0))
        assert base.lambda1 * base.rho == pytest.approx(6.0)

    def test_four_cycle(self):
        base = unit_cycle_baseline(4)
        assert base == pytest.approx((2.0, 4.0, 3.0))

    def test_six_cycle(self):
        base = unit_cycle_baseline(6)
        assert base == pytest.approx((1.0, 4.0, 5.0))

    @pytest.mark.parametrize("n", range(3, 21))
    def test_matches_realized_unit_cycle(self, n):
        base = unit_cycle_baseline(n)
        g = cycle(n, [1.0] * n)
        values = eigen_sym(laplacian(g)).eigenvalues
        assert abs(values[1] - base.lambda1) <= 1e-10
        assert abs(values[-1] - base.lambda_max) <= 1e-10
        assert abs(global_resistance(g) - base.rho) <= 1e-10 * base.rho

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            unit_cycle_baseline(2)


def _mp_lambda_max_and_rho(conductances):
    """lambda_max of the cycle Laplacian by mpmath's eigsy, and rho by
    series-parallel resistances, at the working precision."""
    n = len(conductances)
    lap = mpmath.zeros(n, n)
    for k, c in enumerate(conductances):
        j = (k + 1) % n
        lap[k, k] += c
        lap[j, j] += c
        lap[k, j] -= c
        lap[j, k] -= c
    eigenvalues = mpmath.eigsy(lap, eigvals_only=True)
    r = [1 / c for c in conductances]
    total = mpmath.fsum(r)
    return max(eigenvalues), mpmath.fsum(x * (total - x) for x in r) / total


class TestEqualWeightsMinimizeLambdaMax:
    """Jensen's inequalities behind the theorem: lambda_max and rho are convex and
    rotation-invariant, so the mean conductance in every entry lowers both."""

    @given(st.integers(3, 20).flatmap(
        lambda n: st.lists(st.floats(-30.0, 30.0, width=64), min_size=n, max_size=n)))
    @settings(max_examples=300, deadline=None)
    def test_mean_conductance_lowers_lambda_max_and_rho(self, logs):
        n = len(logs)
        c = np.exp(logs)
        mean = float(np.add.reduce(c)) / n
        eigenvalues, rhos = cycle_spectra(c[None, :])
        # one eigensolve and one series sum in float; both are within O(n eps) relative
        slack = 1.0 + 16 * n * np.finfo(float).eps
        assert unit_cycle_baseline(n).lambda_max * mean <= eigenvalues[0, -1] * slack
        assert (n - 1) / mean <= rhos[0] * slack

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_mean_conductance_lowers_lambda_max_and_rho_in_mpmath(self, n):
        # ratios to 1e+-100, and cycles within 1e-20 of equal weights, where
        # the inequalities are tightest; 60 digits resolve both
        rng = np.random.default_rng(40 + n)
        with mpmath.workdps(60):
            corpus = [[mpmath.mpf(10) ** mpmath.mpf(float(x)) for x in rng.uniform(-100.0, 100.0, n)]
                      for _ in range(4)]
            corpus += [[1 + mpmath.mpf(float(x)) * mpmath.mpf(10) ** -20 for x in rng.uniform(-1.0, 1.0, n)]
                       for _ in range(4)]
            unit_lambda_max = 2 - 2 * mpmath.cos(2 * mpmath.pi * (n // 2) / n)
            for c in corpus:
                mean = mpmath.fsum(c) / n
                lambda_max, rho = _mp_lambda_max_and_rho(c)
                assert unit_lambda_max * mean <= lambda_max
                assert (n - 1) / mean <= rho
                assert unit_lambda_max * (n - 1) <= lambda_max * rho


class TestScanFamily:
    def test_fig1_grid_peaks_at_unit_point(self):
        grid = np.linspace(0.6, 1.9, 131)
        rows = scan_family("fig1", grid)
        assert len(rows) == 131
        lam1 = np.array([r.eigenvalues[1] for r in rows])
        lam2 = np.array([r.eigenvalues[2] for r in rows])
        nearest_one = int(np.argmin(np.abs(grid - 1.0)))
        assert int(np.argmax(lam1)) == nearest_one
        assert int(np.argmin(lam2)) == nearest_one
        assert lam1[nearest_one] == pytest.approx(3.0, abs=1e-6)

    def test_fig1_rows_match_closed_forms(self):
        rows = scan_family("fig1", np.linspace(0.6, 1.9, 50))
        for row in rows:
            b = row.parameter
            expected = min(3.0 * b / (2.0 * b - 1.0), 3.0 * b)
            assert abs(row.eigenvalues[1] - expected) <= 1e-9

    def test_fig4_rows_respect_four_cycle_bounds(self):
        rows = scan_family("fig4", np.linspace(0.4, 2.5, 60))
        for row in rows:
            assert row.lambda1_rho <= 6.0 * (1.0 + 1e-7)
            assert row.lambdamax_rho >= 6.0 * (1.0 - 1e-7)

    def test_rows_sorted_and_infeasible_skipped(self):
        grid = [1.9, 0.6, 2.5, 1.0]  # 2.5 is outside the fig1 domain
        rows = scan_family("fig1", grid)
        assert [r.parameter for r in rows] == [0.6, 1.0, 1.9]

    def test_empty_feasible_grid(self):
        with pytest.raises(ValueError, match="feasible"):
            scan_family("fig1", [2.5, 3.0])

    def test_nan_parameter_skipped_and_rest_ordered(self):
        grid = np.linspace(0.6, 1.9, 100)
        shuffled = np.random.default_rng(37).permutation(grid).tolist()
        shuffled.insert(37, math.nan)
        rows = scan_family("fig1", shuffled)
        assert [r.parameter for r in rows] == grid.tolist()
        assert rows == scan_family("fig1", grid)
        with pytest.raises(ValueError, match="feasible"):
            scan_family("fig1", [math.nan])


class TestMonotonicityCheck:
    def test_lambda2_increasing_above_unit(self):
        result = monotonicity_check("lemma43a", 1.5, np.linspace(1.5, 5.0, 120))
        assert result.ok
        assert result.worst_margin >= 0.0

    def test_lambda1_decreasing_above_unit(self):
        result = monotonicity_check("lemma44a", 1.5, np.linspace(1.5, 5.0, 120))
        assert result.ok

    def test_lambda2_decreasing_below_unit(self):
        result = monotonicity_check("lemma43b", 0.75, np.linspace(0.3, 0.75, 120))
        assert result.ok

    def test_lambda1_increasing_below_unit(self):
        result = monotonicity_check("lemma44b", 0.75, np.linspace(0.3, 0.75, 120))
        assert result.ok

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError, match="requires b >= 1"):
            monotonicity_check("lemma43a", 0.9, [1.0, 2.0])
        with pytest.raises(ValueError, match="requires 0 < b <= 1"):
            monotonicity_check("lemma44b", 1.5, [0.5, 1.0])

    def test_grid_on_wrong_side_rejected(self):
        with pytest.raises(ValueError, match="goes below"):
            monotonicity_check("lemma43a", 1.5, [1.0, 2.0])
        with pytest.raises(ValueError, match="goes outside"):
            monotonicity_check("lemma44b", 0.75, [0.5, 0.8])

    @pytest.mark.parametrize("check,b,lo,hi", [
        ("lemma43a", 1.5, 1.5, 2.9),
        ("lemma43b", 0.75, 0.3, 0.75),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_value_rejected(self, check, b, lo, hi, bad):
        grid = np.random.default_rng(38).permutation(np.linspace(lo, hi, 100)).tolist()
        assert monotonicity_check(check, b, grid).ok
        grid.insert(37, bad)
        with pytest.raises(ValueError, match="must be finite"):
            monotonicity_check(check, b, grid)

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            monotonicity_check("lemma99", 1.5, [1.5, 2.0])

    def test_all_points_infeasible(self):
        # at b = 1.5 feasibility ends at r = 3
        with pytest.raises(ValueError, match="fewer than two"):
            monotonicity_check("lemma43a", 1.5, [3.5, 4.0])

    @pytest.mark.parametrize("check,index,sign,b,lo,hi", [
        ("lemma43a", 2, 1.0, 1.2, 1.2, 0.98 * 1.2 / 0.2),
        ("lemma44a", 1, -1.0, 1.8, 1.8, 0.98 * 1.8 / 0.8),
        ("lemma43b", 2, -1.0, 0.6, 0.41, 0.6),
        ("lemma44b", 1, 1.0, 0.95, 0.06, 0.95),
    ])
    def test_matches_eigen_sym(self, check, index, sign, b, lo, hi):
        # the benchmark's scan regimes, 400 points up to the end of feasibility
        grid = np.linspace(lo, hi, 400)
        result = monotonicity_check(check, b, grid)
        values = np.array([
            eigen_sym(laplacian(cycle(3, (solve_last_cycle_conductance((b, r), 2.0), b, r)))).eigenvalues
            for r in grid])
        worst = float(min(sign * np.diff(values[:, index])))
        assert abs(result.worst_margin - worst) <= 1e-12 * values.max()

    def test_detects_false_monotonicity_claim(self):
        # lambda1 on the b >= 1 branch is NOT increasing, so feeding it the
        # increasing-check id for the lower regime must fail
        result = monotonicity_check("lemma44a", 1.5, np.linspace(1.5, 2.9, 60))
        flipped = monotonicity_check("lemma43a", 1.5, np.linspace(1.5, 2.9, 60))
        assert result.ok and flipped.ok
        swapped = monotonicity_check("lemma43b", 1.0, np.linspace(0.55, 1.0, 60))
        assert swapped.ok  # b = 1 belongs to both regimes; decreasing holds


class TestSearch:
    def test_three_cycle_products_pinned_at_six(self):
        report = search_counterexample(3, restarts=10, iters_per_restart=400, seed=5)
        assert report.best_max_product <= 6.0 + 1e-7
        assert report.best_min_product == pytest.approx(6.0, rel=1e-15)
        assert not report.counterexample
        best = np.array(report.best_max_conductances)
        assert best.max() / best.min() < 1.001

    def test_deterministic(self):
        a = search_counterexample(4, restarts=4, iters_per_restart=150, seed=9)
        b = search_counterexample(4, restarts=4, iters_per_restart=150, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = search_counterexample(4, restarts=2, iters_per_restart=100, seed=1)
        b = search_counterexample(4, restarts=2, iters_per_restart=100, seed=2)
        assert a.per_restart != b.per_restart

    def test_four_cycle_no_counterexample(self):
        report = search_counterexample(4, restarts=20, iters_per_restart=400, seed=0)
        assert not report.counterexample
        assert report.baseline_low == pytest.approx(6.0)
        assert report.baseline_high == pytest.approx(12.0)
        assert report.best_max_product == pytest.approx(6.0, abs=1e-6)

    def test_six_cycle_finds_product_above_baseline(self):
        # a genuine feature of the landscape: the smallest positive eigenvalue
        # times rho can exceed the unit 6-cycle value; verified independently
        # through eigen_sym and global_resistance below
        report = search_counterexample(6, restarts=10, iters_per_restart=500, seed=0)
        assert report.counterexample
        assert report.best_max_product > report.baseline_low * (1.0 + 1e-7)
        g = cycle(6, list(report.best_max_conductances))
        lam1 = eigen_sym(laplacian(g)).eigenvalues[1]
        rho = global_resistance(g)
        assert lam1 * rho > report.baseline_low * (1.0 + 1e-5)
        assert lam1 * rho == pytest.approx(report.best_max_product, rel=1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"n": 2},
        {"n": 4, "restarts": 0},
        {"n": 4, "iters_per_restart": 0},
        {"n": 4, "seed": -1},
    ])
    def test_rejects_invalid_inputs(self, kwargs):
        with pytest.raises(ValueError):
            search_counterexample(**{"restarts": 2, "iters_per_restart": 10, "seed": 0, **kwargs})

    def test_report_fields_consistent(self):
        report = search_counterexample(4, restarts=6, iters_per_restart=200, seed=3)
        assert report.trials == 6
        assert len(report.per_restart) == 6
        assert report.best_max_product == max(r.max_product for r in report.per_restart)
        assert report.margin == report.best_max_product / report.baseline_low - 1.0

    @pytest.mark.parametrize("n", range(3, 13))
    def test_lambda_max_side_is_the_proved_minimum(self, n):
        # equal weights minimize lambda_max rho on every n-cycle, so the
        # search reports the unit cycle there and its margin is lambda_1's alone
        report = search_counterexample(n, restarts=2, iters_per_restart=60, seed=n)
        assert report.best_min_product == report.baseline_high
        assert report.best_min_conductances == (1.0,) * n
        best = max(r.max_product for r in report.per_restart)
        assert report.margin == best / report.baseline_low - 1.0
        assert report.counterexample == (report.margin > 1e-7)

    def test_gauge_pinning_and_nan_guard(self):
        products = product_evaluator(4)
        (low,), (high,) = products(np.zeros((1, 3)))
        assert low == pytest.approx(6.0, rel=1e-12)
        assert high == pytest.approx(12.0, rel=1e-12)
        (nan_low,), (nan_high,) = products(np.array([[800.0, 0.0, 0.0]]))
        assert math.isnan(nan_low) and math.isnan(nan_high)
        # scale invariance: shifting all coordinates equally only rescales
        (low_b,), (high_b,) = products(np.array([[0.5, 0.5, 0.5]]))
        shifted = np.array([[0.5, 0.5, 0.5]]) - 0.5  # pinned coordinate absorbs the shift
        (low_c,), (high_c,) = products(shifted)
        conducts = np.exp([0.0, 0.5, 0.5, 0.5])
        lam = np.linalg.eigvalsh(laplacian(cycle(4, conducts.tolist())).entries)
        rho = global_resistance(cycle(4, conducts.tolist()))
        assert low_b == pytest.approx(lam[1] * rho, rel=1e-10)

    def test_eigen_sym_cross_checks_search_eigensolver(self):
        rng = np.random.default_rng(33)
        products = product_evaluator(5)
        points = rng.uniform(-2.0, 2.0, size=(20, 4))
        lows, highs = products(points)
        for x, low, high in zip(points, lows, highs):
            conducts = np.exp(np.concatenate(([0.0], x)))
            g = cycle(5, conducts.tolist())
            values = eigen_sym(laplacian(g)).eigenvalues
            rho = global_resistance(g)
            assert low == pytest.approx(values[1] * rho, rel=1e-9)
            assert high == pytest.approx(values[-1] * rho, rel=1e-9)

    def test_evaluator_rho_matches_mpmath(self):
        # 2E/S sums positive terms only; S - sum(r^2)/S lost up to 6.7e4 eps here
        rng = np.random.default_rng(34)
        eps = np.finfo(float).eps
        unit_lam1 = {}
        for _ in range(300):
            n = int(rng.integers(3, 9))
            x = rng.uniform(-0.5, 0.5, size=(1, n - 1)) * math.log(10.0) * 16.0
            products = product_evaluator(n)
            (low,), _ = products(x)
            conducts = np.exp(np.concatenate(([0.0], x[0])))
            # lambda_1 of the evaluator's own stack, so only rho is under test
            lam1 = np.linalg.eigvalsh(laplacian(cycle(n, conducts.tolist())).entries)[1]
            with mpmath.workdps(50):
                r = [1 / mpmath.mpf(float(c)) for c in conducts]
                total = mpmath.fsum(r)
                exact = float(total - mpmath.fsum(v * v for v in r) / total)
            assert abs(low / lam1 - exact) <= 4 * eps * exact

    @pytest.mark.parametrize("max_iters", [5, 50])
    def test_lockstep_matches_scalar_reference(self, max_iters):
        # a stepped bowl with an infinite wall: ties exercise <= against <,
        # the wall the non-finite branches and the plateaus the iteration cap
        def scalar(x):
            return math.inf if x[0] > 2.5 else math.floor(8.0 * float(((x - 0.3) ** 2).sum())) / 8.0

        def stacked(points):
            return np.array([scalar(x) for x in points])

        simplices = np.random.default_rng(35).uniform(-3.0, 3.0, size=(8, 4, 3))
        lanes = _nelder_mead(stacked, simplices, max_iters)
        for k, simplex in enumerate(simplices):
            point, value, iterations, evaluations, nonfinite = _scalar_nelder_mead(scalar, simplex, max_iters)
            assert np.array_equal(lanes.points[k], point)
            assert lanes.values[k] == value
            assert lanes.iterations[k] == iterations
            assert lanes.evaluations[k] == evaluations
            assert lanes.nonfinite[k] == nonfinite
            assert lanes.converged[k] == (iterations < max_iters)

    @pytest.mark.parametrize("seed", [0, 3, 2009833639, 2**32 - 1, 2**32, 2**64 + 3])
    def test_restart_draws_match_numpy_stream(self, seed):
        # numpy's stream, drawn as two (n, n - 1) simplices per restart, of
        # which the search takes the first; seeds past 2^32 take two or three
        # 32-bit entropy words, and with the restart's word up to four
        for k in range(40):
            for n in range(3, 13):
                rng = np.random.default_rng([seed, k])
                expected = [rng.uniform(-3.0, 3.0, size=(n, n - 1)) for _ in range(2)]
                draws = np.array(_restart_draws(seed, k, 2 * n * (n - 1))).reshape(2, n, n - 1)
                assert np.array_equal(draws, expected), (seed, k, n)

    def test_restart_draws_mix_entropy_past_the_pool(self):
        # five and more 32-bit entropy words overflow SeedSequence's pool of four
        for seed, k in [(2**64 + 3, 2**32 + 1), (2**128 + 7, 5), (2**200 - 1, 2**70)]:
            expected = np.random.default_rng([seed, k]).uniform(-3.0, 3.0, size=40)
            assert np.array_equal(_restart_draws(seed, k, 40), expected), (seed, k)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_search_lanes_match_scalar_reference_on_products(self, n):
        # every lane converges for n = 3, and for n = 4, 5 and 6 one lane
        # converges while the other reaches the cap; at n = 6 that takes 407
        # iterations, which seed 3 at a cap of 300 never reaches
        restarts = 2
        seed, cap = (0, 500) if n == 6 else (3, 300)
        report = search_counterexample(n, restarts=restarts, iters_per_restart=cap, seed=seed)
        products = product_evaluator(n)

        def objective(x):
            v = float(-products(x[None, :])[0][0])
            return v if math.isfinite(v) else math.inf

        converged = []
        for k, rec in enumerate(report.per_restart):
            # the search's own draws: the first simplex of numpy's stream
            simplex = np.random.default_rng([seed, k]).uniform(-3.0, 3.0, size=(n, n - 1))
            point, value, iterations, evaluations, nonfinite = _scalar_nelder_mead(objective, simplex, cap)
            assert rec.max_product == -value
            assert rec.max_conductances == tuple(float(c) for c in np.exp(np.concatenate(([0.0], point))))
            assert rec.max_iterations == iterations
            assert rec.max_evaluations == evaluations
            assert rec.max_converged == (iterations < cap)
            assert rec.max_nonfinite == nonfinite
            converged.append(iterations < cap)
        assert any(converged) and (n == 3 or not all(converged))

    def test_lanes_are_independent(self):
        six = search_counterexample(5, restarts=6, seed=3)
        three = search_counterexample(5, restarts=3, seed=3)
        assert six.per_restart[:3] == three.per_restart

    def test_diagnostics_count_the_run(self):
        cap = 200
        report = search_counterexample(4, restarts=6, iters_per_restart=cap, seed=3)
        for rec in report.per_restart:
            # a converged lane stopped before the cap; every iteration evaluates at least once
            assert rec.max_converged == (rec.max_iterations < cap)
            assert rec.max_evaluations >= 4 + rec.max_iterations
            assert rec.max_nonfinite == 0

    def test_eigensolver_failure_stays_in_its_lane(self, monkeypatch):
        n, restarts, seed = 4, 3, 7
        clean = search_counterexample(n, restarts=restarts, iters_per_restart=200, seed=seed)
        # first vertex of restart 1's simplex, drawn as the search draws it
        start = np.random.default_rng([seed, 1]).uniform(-3.0, 3.0, size=(n, n - 1))[0]
        target = np.exp(np.concatenate(([0.0], start)))
        real_eigvalsh = np.linalg.eigvalsh

        def failing_eigvalsh(a, *args, **kwargs):
            edges = np.asarray(a).reshape(-1, n, n)[:, np.arange(n), (np.arange(n) + 1) % n]
            if np.any(np.all(-edges == target, axis=1)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        report = search_counterexample(n, restarts=restarts, iters_per_restart=200, seed=seed)
        for k, (rec, ref) in enumerate(zip(report.per_restart, clean.per_restart)):
            if k == 1:
                assert rec.max_nonfinite == 1
                assert ref.max_nonfinite == 0
            else:
                assert rec == ref
