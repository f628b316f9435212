"""Acceptance suite: one test per criterion, at its stated tolerance and budget.

Every test prints one `criterion N PASS` line (visible with `pytest -s`);
a failing criterion shows up as the test failure itself.
"""

import math
import time

import numpy as np
import pytest

from ohmlab import (
    cycle,
    cycle_rho_closed_form,
    effective_resistance,
    effective_resistance_oracle,
    eigen_sym,
    global_resistance,
    laplacian,
    monotonicity_check,
    scale,
    search_counterexample,
    two_equal_eigenvalues,
    unit_cycle_baseline,
    verify_theorem,
)
from ohmlab.cli import main as cli_main

from conftest import log_uniform, random_connected_graph


def _report(num: int, label: str, elapsed: float, budget: float) -> None:
    print(f"criterion {num} PASS: {label} ({elapsed * 1e3:.2f} ms of {budget * 1e3:.0f} ms budget)")


def test_criterion_1_unit_three_cycle_ground_truth():
    def compute():
        g = cycle(3, [1.0, 1.0, 1.0])
        rho = global_resistance(g)
        values = eigen_sym(laplacian(g)).eigenvalues
        return rho, values

    compute()  # warm caches untimed
    start = time.perf_counter()
    rho, values = compute()
    elapsed = time.perf_counter() - start

    assert abs(rho - 2.0) <= 1e-12
    assert np.allclose(values, [0.0, 3.0, 3.0], atol=1e-9)
    assert abs(values[1] * rho - 6.0) <= 1e-9
    assert abs(values[2] * rho - 6.0) <= 1e-9
    assert elapsed < 1e-3
    _report(1, "unit 3-cycle ground truth", elapsed, 1e-3)


def test_criterion_2_two_equal_family_grid():
    grid = np.linspace(0.51, 1.99, 200)
    v_a = np.array([1.0, -1.0, 0.0])
    v_b = np.array([1.0, 1.0, -2.0])

    start = time.perf_counter()
    lam1 = np.empty(len(grid))
    lam2 = np.empty(len(grid))
    for k, b in enumerate(grid):
        c01 = b * (2.0 - b) / (2.0 * b - 1.0)
        h = laplacian(cycle(3, (c01, b, b)))
        values = eigen_sym(h).eigenvalues
        lam1[k], lam2[k] = values[1], values[2]
        expected_a = 3.0 * b / (2.0 * b - 1.0)
        expected_b = 3.0 * b
        assert abs(values[1] - min(expected_a, expected_b)) <= 1e-9
        assert abs(values[2] - max(expected_a, expected_b)) <= 1e-9
        assert np.linalg.norm(h.entries @ v_a - expected_a * v_a) <= 1e-9
        assert np.linalg.norm(h.entries @ v_b - expected_b * v_b) <= 1e-9
    elapsed = time.perf_counter() - start

    nearest_one = int(np.argmin(np.abs(grid - 1.0)))
    assert int(np.argmax(lam1)) == nearest_one
    assert int(np.argmin(lam2)) == nearest_one
    assert int(np.sum(lam1 == lam1.max())) == 1
    assert int(np.sum(lam2 == lam2.min())) == 1
    assert elapsed < 0.1
    _report(2, "two-equal family eigenvalues and eigenvectors on 200-point grid", elapsed, 0.1)


def test_criterion_3_theorem_fuzz():
    rng = np.random.default_rng(2024)
    count = 100_000

    start = time.perf_counter()
    c = log_uniform(rng, 1e-3, 1e3, size=(count, 3))
    c01, c02, c12 = c[:, 0], c[:, 1], c[:, 2]
    h = np.empty((count, 3, 3))
    h[:, 0, 0] = c01 + c02
    h[:, 1, 1] = c01 + c12
    h[:, 2, 2] = c02 + c12
    h[:, 0, 1] = h[:, 1, 0] = -c01
    h[:, 0, 2] = h[:, 2, 0] = -c02
    h[:, 1, 2] = h[:, 2, 1] = -c12
    w = np.linalg.eigvalsh(h)
    rho = 2.0 * (c01 + c02 + c12) / (c01 * c02 + c01 * c12 + c02 * c12)
    p_low = w[:, 1] * rho
    p_high = w[:, 2] * rho

    assert np.all(p_low <= 6.0 * (1.0 + 1e-7))
    assert np.all(p_high >= 6.0 * (1.0 - 1e-7))
    equality = (np.abs(p_low - 6.0) <= 6e-7) & (np.abs(p_high - 6.0) <= 6e-7)
    ratios = c.max(axis=1) / c.min(axis=1)
    assert np.all(ratios[equality] < 1.0 + 1e-6)

    # tie the package's own verification route into the same corpus
    for row in c[:2000]:
        report = verify_theorem(row.tolist(), tol=1e-7)
        assert report.lower_ok and report.upper_ok
    elapsed = time.perf_counter() - start

    assert elapsed < 5.0
    _report(3, "product bound fuzz on 100000 random 3-cycles", elapsed, 5.0)


def test_criterion_4_resistance_cross_oracles():
    rng = np.random.default_rng(4096)

    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(3, 11))
        g = random_connected_graph(rng, n)
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        matrix = effective_resistance(g, i, j).value
        grounded = effective_resistance_oracle(g, i, j)
        assert abs(matrix - grounded) <= 1e-10 * matrix
        foster = sum(c * effective_resistance(g, a, b).value for a, b, c in g.edges)
        assert abs(foster - (n - 1)) <= 1e-9
    for _ in range(500):
        n = int(rng.integers(3, 13))
        conducts = log_uniform(rng, 1e-2, 1e2, size=n).tolist()
        g = cycle(n, conducts)
        closed = cycle_rho_closed_form(conducts)
        matrix_rho = global_resistance(g)
        assert abs(closed - matrix_rho) <= 1e-10 * closed
        foster = sum(c * effective_resistance(g, a, b).value for a, b, c in g.edges)
        assert abs(foster - (n - 1)) <= 1e-9
    elapsed = time.perf_counter() - start

    assert elapsed < 5.0
    _report(4, "resistance matrix vs grounded LU vs closed-form resistance plus the edge-sum identity",
            elapsed, 5.0)


def test_criterion_5_scaling_law():
    rng = np.random.default_rng(55)

    start = time.perf_counter()
    for _ in range(100):
        conducts = log_uniform(rng, 1e-2, 1e2, size=3).tolist()
        c01, c02, c12 = conducts
        g = cycle(3, (c01, c12, c02))
        rho = global_resistance(g)
        values = eigen_sym(laplacian(g)).eigenvalues
        for alpha in (1e-3, 1.0, 1e3):
            scaled = scale(g, alpha)
            rho_scaled = global_resistance(scaled)
            values_scaled = eigen_sym(laplacian(scaled)).eigenvalues
            assert abs(rho_scaled * alpha - rho) <= 1e-9 * rho
            for k in (1, 2):
                base = values[k] * rho
                assert abs(values_scaled[k] * rho_scaled - base) <= 1e-9 * base
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0
    _report(5, "conductance scaling leaves eigenvalue-resistance products fixed", elapsed, 1.0)


def test_criterion_6_monotonicity_scans():
    start = time.perf_counter()
    for b in (1.1, 1.5, 1.9):
        hi = b + 0.995 * (b / (b - 1.0) - b)
        grid = np.linspace(b, hi, 500)
        assert monotonicity_check("lemma43a", b, grid).ok
        assert monotonicity_check("lemma44a", b, grid).ok
    for b in (0.6, 0.75, 0.9):
        lo = (1.0 - b) + 0.005 * (2.0 * b - 1.0)
        grid = np.linspace(lo, b, 500)
        assert monotonicity_check("lemma43b", b, grid).ok
        assert monotonicity_check("lemma44b", b, grid).ok
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0
    _report(6, "largest/smallest eigenvalue monotonicity on 500-point grids", elapsed, 1.0)


def _confirmed_counterexample(report) -> bool:
    """Re-derive a flagged counterexample through `eigen_sym` and `global_resistance`.

    Only lambda_1 rho can beat its baseline: equal weights provably minimize
    lambda_max rho, and the search reports that side as the unit cycle.
    """
    assert report.best_min_product == report.baseline_high
    threshold = 1e-7
    g = cycle(report.n, list(report.best_max_conductances))
    product = eigen_sym(laplacian(g)).eigenvalues[1] * global_resistance(g)
    return product > report.baseline_low * (1.0 + threshold)


def test_criterion_7_conjecture_search():
    start = time.perf_counter()
    reports = {n: search_counterexample(n, restarts=200, iters_per_restart=500, seed=0)
               for n in (4, 5, 6)}
    elapsed = time.perf_counter() - start

    assert not reports[4].counterexample
    assert abs(reports[4].best_max_product - 6.0) <= 1e-4
    for n in (5, 6):
        report = reports[n]
        if report.counterexample:
            # the criterion treats a genuine counterexample as a publishable
            # event, not a failure; a flag that fails independent re-derivation
            # would be a numerical artifact and does fail
            assert _confirmed_counterexample(report)
            print(f"criterion 7 EVENT: verified counterexample on the {n}-cycle: "
                  f"lambda1*rho = {report.best_max_product!r} > {report.baseline_low!r} at "
                  f"conductances {tuple(round(c, 8) for c in report.best_max_conductances)}")

    assert elapsed < 30.0
    _report(7, "derivative-free search over 4-, 5-, 6-cycle conductances", elapsed, 30.0)


def _read_csv(path):
    headers, rows, comments = None, [], []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif headers is None:
                headers = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return headers, rows, comments


def test_criterion_8_figure_reproduction(tmp_path):
    budgets = {}

    # fig1: closed-form structure of criterion 2
    out1 = str(tmp_path / "fig1.csv")
    start = time.perf_counter()
    assert cli_main(["figure", "fig1", "0.6", "1.9", "131", "--out", out1]) == 0
    budgets["fig1"] = time.perf_counter() - start
    headers, rows, _ = _read_csv(out1)
    grid = np.array([r[0] for r in rows])
    lam1 = np.array([r[headers.index("lambda_1")] for r in rows])
    lam2 = np.array([r[headers.index("lambda_2")] for r in rows])
    for b, l1, l2 in zip(grid, lam1, lam2):
        pair = sorted((3.0 * b / (2.0 * b - 1.0), 3.0 * b))
        assert abs(l1 - pair[0]) <= 1e-9
        assert abs(l2 - pair[1]) <= 1e-9
    nearest_one = int(np.argmin(np.abs(grid - 1.0)))
    assert int(np.argmax(lam1)) == nearest_one
    assert int(np.argmin(lam2)) == nearest_one

    # fig3: scan structure of criterion 6; the smallest positive eigenvalue
    # rises until the family crosses the two-equal manifold at (1+sqrt(13))/4
    out3 = str(tmp_path / "fig3.csv")
    start = time.perf_counter()
    assert cli_main(["figure", "fig3", "0.3", "3.0", "100", "--out", out3]) == 0
    budgets["fig3"] = time.perf_counter() - start
    headers, rows, _ = _read_csv(out3)
    params = np.array([r[0] for r in rows])
    lam1 = np.array([r[headers.index("lambda_1")] for r in rows])
    diffs = np.diff(lam1)
    peak = int(np.argmax(lam1))
    r_star = (1.0 + math.sqrt(13.0)) / 4.0
    assert peak == int(np.argmin(np.abs(params - r_star)))
    assert np.all(diffs[:peak] > 0.0)
    assert np.all(diffs[peak:] < 0.0)

    # fig2 and fig4: both curves emitted; solver rho-consistent, deviation logged
    for family, lo, hi, steps, target in (("fig2", "0.5", "2.5", "57", 2.0),
                                          ("fig4", "0.4", "2.5", "64", 3.0)):
        out = str(tmp_path / f"{family}.csv")
        start = time.perf_counter()
        assert cli_main(["figure", family, lo, hi, steps, "--out", out]) == 0
        budgets[family] = time.perf_counter() - start
        headers, rows, comments = _read_csv(out)
        assert headers[-2:] == ["reference_c", "reference_rho_err"]
        rho_col = np.array([r[headers.index("rho")] for r in rows])
        assert np.max(np.abs(rho_col - target)) <= 1e-10 * target
        errs = np.array([r[-1] for r in rows])
        assert np.nanmax(np.abs(errs)) > 1e-3
        assert any("reference formula" in c for c in comments)

    assert all(v < 1.0 for v in budgets.values())
    _report(8, "figure data reproduction (fig1/fig3 structure, fig2/fig4 dual curves)",
            sum(budgets.values()), 4.0)
