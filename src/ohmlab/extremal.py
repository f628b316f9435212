"""Eigenvalue-resistance product bounds, monotonicity scans, and counterexample search.

For a weighted 3-cycle the products lambda_1 * rho and lambda_2 * rho of the
positive Laplacian eigenvalues with the global resistance are bounded by 6
from above and below respectively, with equality exactly at equal weights.
This module verifies that bound, realizes the monotonicity statements behind
it as numerical scans, and searches larger cycles for counterexamples to the
analogous extremality of equal weights using scale-free Nelder-Mead runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .families import CyclePoint, InfeasibleFamilyError, figure_family, solve_last_cycle_conductance
from .graphs import cycle, laplacian
from .linalg import eigen_sym
from .resistance import cycle_rho_closed_form

THREE_CYCLE_PRODUCT_BOUND = 6.0
#: Relative excess over the unit-cycle baseline that counts as a counterexample;
#: above eigensolver noise (~1e-9), far below any plausible true violation.
COUNTEREXAMPLE_MARGIN = 1e-7

_REFLECTION = 1.0
_EXPANSION = 2.0
_CONTRACTION = 0.5
_SHRINK = 0.5
_DIAMETER_TOL = 1e-9

#: Scan rows share the realized-cycle contract of family points.
ScanRow = CyclePoint


@dataclass(frozen=True)
class TheoremReport:
    """Product bound check for one 3-cycle: values, flags, equality detection."""

    conductances: tuple[float, float, float]
    rho: float
    lambda1_rho: float
    lambdamax_rho: float
    lower_ok: bool
    upper_ok: bool
    equality: bool


class UnitCycleBaseline(NamedTuple):
    lambda1: float
    lambda_max: float
    rho: float


class MonotonicityResult(NamedTuple):
    """Outcome of a monotonicity scan; ``worst_margin`` is the smallest signed
    eigenvalue difference in the required direction (negative means violation)."""

    ok: bool
    worst_margin: float


@dataclass(frozen=True)
class RestartBest:
    """Best products found by one restart of each search direction."""

    restart: int
    max_product: float
    max_conductances: tuple[float, ...]
    min_product: float
    min_conductances: tuple[float, ...]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the extremal search on an n-cycle against unit-cycle baselines."""

    n: int
    trials: int
    seed: int
    baseline_low: float
    baseline_high: float
    best_max_product: float
    best_max_conductances: tuple[float, ...]
    best_min_product: float
    best_min_conductances: tuple[float, ...]
    counterexample: bool
    margin: float
    per_restart: tuple[RestartBest, ...]


def verify_theorem(conductances: Sequence[float], tol: float = 1e-9) -> TheoremReport:
    """Check lambda_1 rho <= 6 <= lambda_2 rho for the 3-cycle (c01, c12, c02).

    ``tol`` is relative: the lower bound passes when lambda_1 rho <= 6 (1+tol),
    the upper when lambda_2 rho >= 6 (1-tol), and equality is flagged when both
    products sit within 6 tol of the bound.
    """
    values = tuple(float(x) for x in conductances)
    if len(values) != 3:
        raise ValueError(f"expected 3 conductances, got {len(values)}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    rho = cycle_rho_closed_form(values)
    spectrum = eigen_sym(laplacian(cycle(3, values)))
    lambda1_rho = float(spectrum.eigenvalues[1]) * rho
    lambdamax_rho = float(spectrum.eigenvalues[2]) * rho
    bound = THREE_CYCLE_PRODUCT_BOUND
    return TheoremReport(
        conductances=values,
        rho=rho,
        lambda1_rho=lambda1_rho,
        lambdamax_rho=lambdamax_rho,
        lower_ok=lambda1_rho <= bound * (1.0 + tol),
        upper_ok=lambdamax_rho >= bound * (1.0 - tol),
        equality=abs(lambda1_rho - bound) <= bound * tol and abs(lambdamax_rho - bound) <= bound * tol,
    )


def unit_cycle_baseline(n: int) -> UnitCycleBaseline:
    """Closed-form spectrum extremes and global resistance of the unit n-cycle.

    Eigenvalues are 2 - 2 cos(2 pi k / n); the smallest positive one sits at
    k = 1 and the largest at k = floor(n/2). The global resistance is n - 1.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"cycle length must be an integer >= 3, got {n!r}")
    lambda1 = 2.0 - 2.0 * math.cos(2.0 * math.pi / n)
    lambda_max = 2.0 - 2.0 * math.cos(2.0 * math.pi * (n // 2) / n)
    return UnitCycleBaseline(lambda1=lambda1, lambda_max=lambda_max, rho=float(n - 1))


def scan_family(family: str, param_grid: Sequence[float]) -> list[ScanRow]:
    """Realize a figure family over a parameter grid, ordered by parameter.

    Infeasible grid points are skipped; if none are feasible a ValueError is
    raised. The skipped count is the grid size minus the returned row count.
    """
    rows: list[ScanRow] = []
    for param in sorted(float(p) for p in param_grid):
        try:
            rows.append(figure_family(family, param))
        except InfeasibleFamilyError:
            continue
    if not rows:
        raise ValueError(f"no feasible grid points for family {family!r}")
    return rows


#: check id -> (eigenvalue index, required difference sign, parameter regime)
_MONOTONICITY_CHECKS: dict[str, tuple[int, float, str]] = {
    "lemma43a": (2, +1.0, "upper"),
    "lemma43b": (2, -1.0, "lower"),
    "lemma44a": (1, -1.0, "upper"),
    "lemma44b": (1, +1.0, "lower"),
}


def monotonicity_check(check: str, b: float, r_grid: Sequence[float],
                       tol: float = 1e-10) -> MonotonicityResult:
    """Scan an eigenvalue of the rho = 2 3-cycle family (solved, b, r) over r.

    ``lemma43a``/``lemma43b`` track the largest eigenvalue (increasing for
    b >= 1 on r >= b, decreasing for b <= 1 on r <= b); ``lemma44a``/``lemma44b``
    track the smallest positive eigenvalue with the opposite directions.
    Grid points where no positive third conductance exists are skipped.
    """
    try:
        eig_index, sign, regime = _MONOTONICITY_CHECKS[check]
    except KeyError:
        raise ValueError(
            f"unknown check {check!r}; choose from {sorted(_MONOTONICITY_CHECKS)}"
        ) from None
    b = float(b)
    grid = sorted(float(r) for r in r_grid)
    if regime == "upper":
        if not b >= 1.0:
            raise ValueError(f"{check} requires b >= 1, got {b!r}")
        if any(r < b for r in grid):
            raise ValueError(f"{check} scans r >= b = {b!r}; grid goes below")
    else:
        if not 0.0 < b <= 1.0:
            raise ValueError(f"{check} requires 0 < b <= 1, got {b!r}")
        if any(not 0.0 < r <= b for r in grid):
            raise ValueError(f"{check} scans 0 < r <= b = {b!r}; grid goes outside")
    eigenvalues = []
    for r in grid:
        try:
            z = solve_last_cycle_conductance((b, r), 2.0)
        except InfeasibleFamilyError:
            continue
        spectrum = eigen_sym(laplacian(cycle(3, (z, b, r))))
        eigenvalues.append(float(spectrum.eigenvalues[eig_index]))
    if len(eigenvalues) < 2:
        raise ValueError(f"fewer than two feasible grid points for {check} at b={b!r}")
    margins = sign * np.diff(eigenvalues)
    worst = float(margins.min())
    return MonotonicityResult(ok=bool(worst >= -tol), worst_margin=worst)


def _product_evaluator(n: int) -> Callable[[np.ndarray], tuple[float, float]]:
    """(lambda_1 rho, lambda_max rho) of the n-cycle with log-conductances (0, x...).

    Pinning the first coordinate removes the scale gauge: the products are
    invariant under global conductance scaling. Uses eigenvalue-only LAPACK
    ``syev`` on a reused buffer for speed; the test suite cross-checks it
    against :func:`eigen_sym` and :func:`global_resistance`. Points whose
    conductances would overflow or underflow yield (nan, nan).
    """
    indices = np.arange(n)
    successors = np.roll(indices, -1)
    predecessors = np.roll(indices, 1)
    h = np.empty((n, n))
    logs = np.empty(n)
    conducts = np.empty(n)
    syev, = get_lapack_funcs(("syev",), (h,))

    def products(x: np.ndarray) -> tuple[float, float]:
        logs[0] = 0.0
        logs[1:] = x
        # exp stays finite and positive on |log| <= 700; NaN also fails here
        if not float(np.abs(logs).max()) <= 700.0:
            return math.nan, math.nan
        np.exp(logs, out=conducts)
        h.fill(0.0)
        h[indices, successors] = -conducts
        h[successors, indices] = -conducts
        h[indices, indices] = conducts + conducts[predecessors]
        w, _, info = syev(h, compute_v=0, overwrite_a=1)
        if info != 0:
            return math.nan, math.nan
        r = 1.0 / conducts
        total = float(r.sum())
        rho = total - float(r @ r) / total
        return float(w[1]) * rho, float(w[-1]) * rho

    return products


def _squared_diameter(points: np.ndarray) -> float:
    diff = points[:, None, :] - points[None, :, :]
    return float((diff * diff).sum(axis=-1).max())


def _nelder_mead(fn: Callable[[np.ndarray], float], initial_simplex: np.ndarray,
                 max_iters: int) -> tuple[np.ndarray, float, int]:
    """Minimize fn, stopping when the simplex diameter drops below 1e-9.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    Returns (best point, best value, iterations used).
    """
    points = np.array(initial_simplex, dtype=float)
    values = np.array([fn(p) for p in points])
    iterations = 0
    while iterations < max_iters:
        order = np.argsort(values, kind="stable")
        points = points[order]
        values = values[order]
        if _squared_diameter(points) < _DIAMETER_TOL * _DIAMETER_TOL:
            break
        iterations += 1
        centroid = points[:-1].mean(axis=0)
        direction = centroid - points[-1]
        reflected = centroid + _REFLECTION * direction
        f_reflected = fn(reflected)
        if values[0] <= f_reflected < values[-2]:
            points[-1] = reflected
            values[-1] = f_reflected
            continue
        if f_reflected < values[0]:
            expanded = centroid + _EXPANSION * direction
            f_expanded = fn(expanded)
            if f_expanded < f_reflected:
                points[-1] = expanded
                values[-1] = f_expanded
            else:
                points[-1] = reflected
                values[-1] = f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + _CONTRACTION * direction
            f_contracted = fn(contracted)
            if f_contracted <= f_reflected:
                points[-1] = contracted
                values[-1] = f_contracted
                continue
        else:
            contracted = centroid - _CONTRACTION * direction
            f_contracted = fn(contracted)
            if f_contracted < values[-1]:
                points[-1] = contracted
                values[-1] = f_contracted
                continue
        points[1:] = points[0] + _SHRINK * (points[1:] - points[0])
        values[1:] = [fn(p) for p in points[1:]]
    order = np.argsort(values, kind="stable")
    return points[order[0]], float(values[order[0]]), iterations


def search_counterexample(n: int, restarts: int = 200, iters_per_restart: int = 500,
                          seed: int = 0) -> SearchReport:
    """Search n-cycle conductances maximizing lambda_1 rho and minimizing lambda_{n-1} rho.

    Each restart draws fresh simplex vertices log-uniformly in [-3, 3] per
    coordinate from a stream derived from (seed, restart index), then runs one
    Nelder-Mead per direction. A counterexample is flagged when a product
    beats its unit-cycle baseline by more than a relative 1e-7.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"cycle length must be an integer >= 3, got {n!r}")
    if not isinstance(restarts, int) or restarts < 1:
        raise ValueError(f"restarts must be a positive integer, got {restarts!r}")
    if not isinstance(iters_per_restart, int) or iters_per_restart < 1:
        raise ValueError(f"iters_per_restart must be a positive integer, got {iters_per_restart!r}")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

    base = unit_cycle_baseline(n)
    baseline_low = base.lambda1 * base.rho
    baseline_high = base.lambda_max * base.rho
    products = _product_evaluator(n)

    def objective_max(x: np.ndarray) -> float:
        low, _ = products(x)
        return -low if math.isfinite(low) else math.inf

    def objective_min(x: np.ndarray) -> float:
        _, high = products(x)
        return high if math.isfinite(high) else math.inf

    def conductances_at(x: np.ndarray) -> tuple[float, ...]:
        return tuple(float(v) for v in np.exp(np.concatenate(([0.0], x))))

    dim = n - 1
    records = []
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        simplex_max = rng.uniform(-3.0, 3.0, size=(dim + 1, dim))
        simplex_min = rng.uniform(-3.0, 3.0, size=(dim + 1, dim))
        x_max, f_max, _ = _nelder_mead(objective_max, simplex_max, iters_per_restart)
        x_min, f_min, _ = _nelder_mead(objective_min, simplex_min, iters_per_restart)
        records.append(RestartBest(
            restart=k,
            max_product=-f_max,
            max_conductances=conductances_at(x_max),
            min_product=f_min,
            min_conductances=conductances_at(x_min),
        ))
    best_max = max(records, key=lambda rec: rec.max_product)
    best_min = min(records, key=lambda rec: rec.min_product)
    margin = max(
        best_max.max_product / baseline_low - 1.0,
        1.0 - best_min.min_product / baseline_high,
    )
    return SearchReport(
        n=n,
        trials=restarts,
        seed=seed,
        baseline_low=baseline_low,
        baseline_high=baseline_high,
        best_max_product=best_max.max_product,
        best_max_conductances=best_max.max_conductances,
        best_min_product=best_min.min_product,
        best_min_conductances=best_min.min_conductances,
        counterexample=bool(margin > COUNTEREXAMPLE_MARGIN),
        margin=margin,
        per_restart=tuple(records),
    )
