"""Eigenvalue-resistance product bounds, monotonicity scans, and counterexample search.

For a weighted 3-cycle the products lambda_1 * rho and lambda_2 * rho of the
positive Laplacian eigenvalues with the global resistance are bounded by 6
from above and below respectively, with equality exactly at equal weights.
This module verifies that bound, realizes the monotonicity statements behind
it as numerical scans, and searches larger cycles for counterexamples to the
analogous extremality of equal weights using scale-free Nelder-Mead runs. The
search advances every restart and both directions together. Spectra and
global resistances come from :func:`~ohmlab.families.cycle_spectra`, one call
per theorem check, monotonicity grid or batch of search points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# scan_family is defined beside figure_family, whose realization it shares
from .families import CyclePoint, InfeasibleFamilyError, cycle_spectra, scan_family, solve_last_cycle_conductance
from .graphs import GraphError

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
    """Best products found by one restart of each search direction.

    Per direction, ``iterations`` counts Nelder-Mead iterations, ``evaluations``
    product evaluations, ``converged`` tells whether the simplex diameter fell
    below 1e-9 before the iteration cap, and ``nonfinite`` counts evaluations
    whose product was NaN or infinite.
    """

    restart: int
    max_product: float
    max_conductances: tuple[float, ...]
    min_product: float
    min_conductances: tuple[float, ...]
    max_iterations: int
    max_evaluations: int
    max_converged: bool
    max_nonfinite: int
    min_iterations: int
    min_evaluations: int
    min_converged: bool
    min_nonfinite: int


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
    products sit within 6 tol of the bound. The eigensolver's error in
    lambda_1 is about eps lambda_max, so a product it cannot resolve within
    that slack (3 eps lambda_max rho > 6 tol), or a non-finite rho or product,
    raises ``numpy.linalg.LinAlgError`` instead of a verdict.
    """
    values = tuple(float(x) for x in conductances)
    if len(values) != 3:
        raise ValueError(f"expected 3 conductances, got {len(values)}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not all(0.0 < c < math.inf for c in values):
        raise GraphError(f"conductances must be positive finite reals, got {values}")
    eigenvalues, rhos = cycle_spectra([values])
    rho = float(rhos[0])
    lambda1_rho = float(eigenvalues[0, 1]) * rho
    lambdamax_rho = float(eigenvalues[0, 2]) * rho
    bound = THREE_CYCLE_PRODUCT_BOUND
    # false as well when rho, and so both products, is NaN or infinite
    if not 3.0 * np.finfo(float).eps * lambdamax_rho <= bound * tol:
        raise np.linalg.LinAlgError(f"products lambda_1 rho = {lambda1_rho!r}, lambda_2 rho = "
                                    f"{lambdamax_rho!r} cannot be resolved to relative tolerance {tol!r}")
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
    Grid points where no positive third conductance exists are skipped; a
    non-finite grid value raises ``ValueError``.
    """
    try:
        eig_index, sign, regime = _MONOTONICITY_CHECKS[check]
    except KeyError:
        raise ValueError(
            f"unknown check {check!r}; choose from {sorted(_MONOTONICITY_CHECKS)}"
        ) from None
    b = float(b)
    grid = [float(r) for r in r_grid]
    if not all(math.isfinite(r) for r in grid):
        raise ValueError(f"{check} grid values must be finite")
    grid.sort()
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
    rows = []
    for r in grid:
        try:
            rows.append((solve_last_cycle_conductance((b, r), 2.0), b, r))
        except InfeasibleFamilyError:
            continue
    if len(rows) < 2:
        raise ValueError(f"fewer than two feasible grid points for {check} at b={b!r}")
    eigenvalues, _ = cycle_spectra(rows)
    margins = sign * np.diff(eigenvalues[:, eig_index])
    worst = float(margins.min())
    return MonotonicityResult(ok=bool(worst >= -tol), worst_margin=worst)


def _product_evaluator(n: int) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(lambda_1 rho, lambda_max rho) of n-cycles with log-conductances (0, x...).

    Takes an (m, n-1) stack of points and returns two length-m arrays. Pinning
    the first coordinate removes the scale gauge: the products are invariant
    under global conductance scaling. The whole stack goes through one
    :func:`~ohmlab.families.cycle_spectra` call. Rows whose conductances would
    overflow or underflow, and rows LAPACK fails on, yield (nan, nan).
    """

    def products(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = len(x)
        # exp stays finite and positive on |log| <= 700; NaN fails too, the pinned 0 never
        invalid = (~(np.abs(x).max(axis=1) <= 700.0)).nonzero()[0]
        logs = np.zeros((m, n))
        logs[:, 1:] = x
        if invalid.size:
            logs[invalid] = 0.0
        conducts = np.exp(logs)
        try:
            w, rho = cycle_spectra(conducts)
        except np.linalg.LinAlgError:
            # numpy fails the whole stack when one matrix fails; keep the others
            w, rho = np.full((m, n), math.nan), np.full(m, math.nan)
            for row in range(m):
                try:
                    w[row:row + 1], rho[row:row + 1] = cycle_spectra(conducts[row:row + 1])
                except np.linalg.LinAlgError:
                    pass
        if invalid.size:
            rho[invalid] = math.nan
        return w[:, 1] * rho, w[:, -1] * rho

    return products


class _LaneResults(NamedTuple):
    """Per-lane outcome of :func:`_nelder_mead`, each field indexed by lane."""

    points: np.ndarray
    values: np.ndarray
    iterations: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    nonfinite: np.ndarray


def _nelder_mead(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], simplices: np.ndarray,
                 max_iters: int) -> _LaneResults:
    """Minimize fn on every lane of a (lanes, dim+1, dim) simplex stack in lockstep.

    ``fn(points, lanes)`` evaluates a stack of points, point i belonging to
    lane ``lanes[i]``. Each lane follows the scalar method exactly and
    independently of the others: coefficients reflection 1, expansion 2,
    contraction 0.5 and shrink 0.5, a stable sort of the vertices every
    iteration, and a stop when the simplex diameter drops below 1e-9
    (``converged``) or after ``max_iters`` iterations. Only running lanes are
    stepped, in compact arrays written back when a lane stops; the all-pairs
    diameter is computed only for lanes whose best-to-worst distance, one of
    its terms, is already below the tolerance. A step evaluates the
    reflections of all running lanes in one batch, the expansions and both
    contractions in a second and the shrinks in a third, skipping empty ones.
    """
    points = np.array(simplices, dtype=float)
    count, size, dim = points.shape
    evaluations = np.zeros(count, dtype=int)
    nonfinite = np.zeros(count, dtype=int)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)

    def evaluate(x: np.ndarray, lanes: np.ndarray, per: int = 1) -> np.ndarray:
        # x holds per points of each lane in turn; lane indices are unique
        f = fn(x, lanes if per == 1 else np.repeat(lanes, per))
        bad = ~np.isfinite(f)
        evaluations[lanes] += per
        nonfinite[lanes] += bad if per == 1 else bad.reshape(-1, per).sum(axis=1)
        return f

    lanes = np.arange(count)
    values = evaluate(points.reshape(-1, dim), lanes, size).reshape(count, size)
    p, v = points, values
    step = 0
    while step < max_iters:
        rows = np.arange(lanes.size)[:, None]
        order = np.argsort(v, axis=1, kind="stable")
        p, v = p[rows, order], v[rows, order]
        gap = p[:, -1] - p[:, 0]
        near = ((gap * gap).sum(axis=-1) < _DIAMETER_TOL * _DIAMETER_TOL).nonzero()[0]
        if near.size:
            diff = p[near, :, None, :] - p[near, None, :, :]
            done = near[(diff * diff).sum(axis=-1).max(axis=(1, 2)) < _DIAMETER_TOL * _DIAMETER_TOL]
            if done.size:
                stopped = lanes[done]
                points[stopped], values[stopped], iterations[stopped] = p[done], v[done], step
                converged[stopped] = True
                lanes, p, v = np.delete(lanes, done), np.delete(p, done, axis=0), np.delete(v, done, axis=0)
                if lanes.size == 0:
                    break
        step += 1
        centroid = p[:, :-1].sum(axis=1) / dim
        direction = centroid - p[:, -1]
        reflected = centroid + _REFLECTION * direction
        f_reflected = evaluate(reflected, lanes)
        best, second, worst = v[:, 0], v[:, -2], v[:, -1]
        tried = (~((best <= f_reflected) & (f_reflected < second))).nonzero()[0]
        new_point, new_value, shrink = reflected, f_reflected, tried
        if tried.size:
            f_ref = f_reflected[tried]
            expand = f_ref < best[tried]
            outside = ~expand & (f_ref < worst[tried])
            coef = np.where(expand, _EXPANSION, np.where(outside, _CONTRACTION, -_CONTRACTION))
            trial = centroid[tried] + coef[:, None] * direction[tried]
            f_trial = evaluate(trial, lanes[tried])
            take = np.where(expand, f_trial < f_ref,
                            np.where(outside, f_trial <= f_ref, f_trial < worst[tried]))
            new_point[tried[take]] = trial[take]
            new_value[tried[take]] = f_trial[take]
            # a shrinking lane keeps its worst vertex until the shrink moves it
            shrink = tried[~take & ~expand]
            new_point[shrink], new_value[shrink] = p[shrink, -1], v[shrink, -1]
        p[:, -1], v[:, -1] = new_point, new_value
        if shrink.size:
            s = p[shrink]
            s[:, 1:] = s[:, :1] + _SHRINK * (s[:, 1:] - s[:, :1])
            p[shrink] = s
            v[shrink, 1:] = evaluate(s[:, 1:].reshape(-1, dim), lanes[shrink], size - 1).reshape(-1, size - 1)
    points[lanes], values[lanes] = p, v
    iterations[lanes] = step
    first = np.argsort(values, axis=1, kind="stable")[:, 0]
    every = np.arange(count)
    return _LaneResults(points[every, first], values[every, first], iterations, evaluations,
                        converged, nonfinite)


def search_counterexample(n: int, restarts: int = 200, iters_per_restart: int = 500,
                          seed: int = 0) -> SearchReport:
    """Search n-cycle conductances maximizing lambda_1 rho and minimizing lambda_{n-1} rho.

    Each restart draws fresh simplex vertices log-uniformly in [-3, 3] per
    coordinate from a stream derived from (seed, restart index), then runs one
    Nelder-Mead per direction; all restarts and both directions advance in
    lockstep as lanes 2k (maximizing) and 2k+1 (minimizing) of one
    :func:`_nelder_mead`. A counterexample is flagged when a product beats its
    unit-cycle baseline by more than a relative 1e-7.
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
    maximize = np.arange(2 * restarts) % 2 == 0

    def objective(x: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        low, high = products(x)
        value = np.where(maximize[lanes], -low, high)
        value[~np.isfinite(value)] = math.inf
        return value

    def conductances_at(x: np.ndarray) -> tuple[float, ...]:
        return tuple(float(v) for v in np.exp(np.concatenate(([0.0], x))))

    dim = n - 1
    simplices = []
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        simplices.append(rng.uniform(-3.0, 3.0, size=(dim + 1, dim)))
        simplices.append(rng.uniform(-3.0, 3.0, size=(dim + 1, dim)))
    lanes = _nelder_mead(objective, np.stack(simplices), iters_per_restart)

    records = []
    for k in range(restarts):
        hi, lo = 2 * k, 2 * k + 1
        records.append(RestartBest(
            restart=k,
            max_product=-float(lanes.values[hi]),
            max_conductances=conductances_at(lanes.points[hi]),
            min_product=float(lanes.values[lo]),
            min_conductances=conductances_at(lanes.points[lo]),
            max_iterations=int(lanes.iterations[hi]),
            max_evaluations=int(lanes.evaluations[hi]),
            max_converged=bool(lanes.converged[hi]),
            max_nonfinite=int(lanes.nonfinite[hi]),
            min_iterations=int(lanes.iterations[lo]),
            min_evaluations=int(lanes.evaluations[lo]),
            min_converged=bool(lanes.converged[lo]),
            min_nonfinite=int(lanes.nonfinite[lo]),
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
