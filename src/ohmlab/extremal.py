"""Eigenvalue-resistance product bounds, monotonicity scans, and counterexample search.

For a weighted 3-cycle the products lambda_1 * rho and lambda_2 * rho of the
positive Laplacian eigenvalues with the global resistance are bounded by 6
from above and below respectively, with equality exactly at equal weights.
This module verifies that bound, realizes the monotonicity statements behind
it as numerical scans, and searches larger cycles for counterexamples to the
analogous extremality of equal weights using scale-free Nelder-Mead runs. The
search advances every restart and both directions together, from starting
simplices drawn from numpy's ``default_rng([seed, restart])`` PCG64 stream,
reproduced in Python integers without ``numpy.random``. This module owns
the verdicts, the scans and the Nelder-Mead driver; the numbers come from
:mod:`ohmlab.cycles`: one :func:`~ohmlab.cycles.cycle_spectra` call per
theorem check or monotonicity grid, and one
:func:`~ohmlab.cycles.product_evaluator` call per batch of search points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cycles import cycle_spectra, last_cycle_conductances, product_evaluator
# scan_family is defined beside figure_family, whose realization it shares
from .families import THREE_CYCLE_TARGET_RHO, scan_family
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

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: numpy's SeedSequence: the hashmix constants of the entropy pool and of the
#: state it generates, and the two multipliers of mix
_POOL_INIT, _POOL_MULT = 0x43B0D7E5, 0x931E8875
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    that slack (3 eps lambda_max rho > 6 tol), or a non-finite product,
    raises ``numpy.linalg.LinAlgError`` instead of a verdict. The products are
    computed on the conductances scaled by the power of two that brings the
    largest into [1/2, 1), unless that scaling would round a subnormal one
    while every degree is finite unscaled; ``rho`` is scaled back and reads
    inf where it exceeds the float range.
    """
    values = tuple(float(x) for x in conductances)
    if len(values) != 3:
        raise ValueError(f"expected 3 conductances, got {len(values)}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not all(0.0 < c < math.inf for c in values):
        raise GraphError(f"conductances must be positive finite reals, got {values}")
    # the products are scale-free. Scaling by a power of two keeps the Laplacian
    # finite and LAPACK off its own rescaling, which is not by a power of two,
    # so the products are the same at every 2^k; where it would round a
    # conductance, the unscaled cycle is exact unless a degree overflows
    exponent = math.frexp(max(values))[1]
    scaled = [math.ldexp(c, -exponent) for c in values]
    if (any(math.ldexp(c, exponent) != v for c, v in zip(scaled, values))
            and all(values[e] + values[e - 1] < math.inf for e in range(3))):
        scaled, exponent = list(values), 0
    eigenvalues, rhos = cycle_spectra([scaled])
    scaled_rho = float(rhos[0])
    lambda1_rho = float(eigenvalues[0, 1]) * scaled_rho
    lambdamax_rho = float(eigenvalues[0, 2]) * scaled_rho
    bound = THREE_CYCLE_PRODUCT_BOUND
    # false as well when rho, and so both products, is NaN or infinite
    if not 3.0 * np.finfo(float).eps * lambdamax_rho <= bound * tol:
        raise np.linalg.LinAlgError(f"products lambda_1 rho = {lambda1_rho!r}, lambda_2 rho = "
                                    f"{lambdamax_rho!r} cannot be resolved to relative tolerance {tol!r}")
    with np.errstate(over="ignore"):
        rho = float(np.ldexp(scaled_rho, -exponent))
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
    non-finite grid value raises ``ValueError``. The whole grid takes one
    solve and one :func:`~ohmlab.cycles.cycle_spectra` call.
    """
    try:
        eig_index, sign, regime = _MONOTONICITY_CHECKS[check]
    except KeyError:
        raise ValueError(
            f"unknown check {check!r}; choose from {sorted(_MONOTONICITY_CHECKS)}"
        ) from None
    b = float(b)
    grid = np.sort(np.asarray(r_grid, dtype=float))
    if not np.isfinite(grid).all():
        raise ValueError(f"{check} grid values must be finite")
    if regime == "upper":
        if not b >= 1.0:
            raise ValueError(f"{check} requires b >= 1, got {b!r}")
        if (grid < b).any():
            raise ValueError(f"{check} scans r >= b = {b!r}; grid goes below")
    else:
        if not 0.0 < b <= 1.0:
            raise ValueError(f"{check} requires 0 < b <= 1, got {b!r}")
        if not ((0.0 < grid) & (grid <= b)).all():
            raise ValueError(f"{check} scans 0 < r <= b = {b!r}; grid goes outside")
    known = np.column_stack((np.full_like(grid, b), grid))
    free, _ = last_cycle_conductances(known, THREE_CYCLE_TARGET_RHO)
    rows = np.column_stack((free, known))[free > 0.0]
    if len(rows) < 2:
        raise ValueError(f"fewer than two feasible grid points for {check} at b={b!r}")
    eigenvalues, _ = cycle_spectra(rows)
    margins = sign * np.diff(eigenvalues[:, eig_index])
    worst = float(margins.min())
    return MonotonicityResult(ok=bool(worst >= -tol), worst_margin=worst)


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


def _hashmix(mult: int, step: int) -> Callable[[int], int]:
    """numpy SeedSequence's 32-bit hashmix, whose multiplier advances by ``step`` per call."""

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * step & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    """numpy SeedSequence's mix of two 32-bit words."""
    value = (_MIX_LEFT * x - _MIX_RIGHT * y) & _MASK32
    return value ^ value >> 16


def _restart_draws(seed: int, restart: int, count: int) -> list[float]:
    """The first ``count`` values of ``numpy.random.default_rng([seed, restart])``'s
    ``uniform(-3.0, 3.0)`` draws, bit for bit, in Python integers.

    numpy's SeedSequence splits each of the two integers into little-endian
    32-bit words, hashes them into a pool of four and generates four 64-bit
    words; two seed PCG64's 128-bit state and two its increment. Each draw
    steps the LCG, takes the XSL-RR output x and returns -3 + 6 (x >> 11) 2^-53.
    """
    entropy = []
    for value in (seed, restart):
        entropy.append(value & _MASK32)
        while value := value >> 32:
            entropy.append(value & _MASK32)

    hashmix = _hashmix(_POOL_INIT, _POOL_MULT)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_STATE_INIT, _STATE_MULT)
    words = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    state_high, state_low, inc_high, inc_low = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
    # PCG64 seeding: one step from 0, add the seed state, one more step
    state = ((inc + (state_high << 64 | state_low)) * _PCG_MULT + inc) & _MASK128
    draws = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        rotation = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rotation | x << (64 - rotation)) & _MASK64
        draws.append(-3.0 + 6.0 * ((x >> 11) * 2.0 ** -53))
    return draws


def search_counterexample(n: int, restarts: int = 200, iters_per_restart: int = 500,
                          seed: int = 0) -> SearchReport:
    """Search n-cycle conductances maximizing lambda_1 rho and minimizing lambda_{n-1} rho.

    Restart k draws the vertices of two simplices, the maximizing one first,
    log-uniformly in [-3, 3] per coordinate: the first 2 n (n-1) values of
    numpy's ``default_rng([seed, k]).uniform(-3.0, 3.0)`` PCG64 stream,
    reproduced without ``numpy.random``. It then runs one Nelder-Mead per
    direction; all restarts and both directions advance in lockstep as lanes
    2k (maximizing) and 2k+1 (minimizing) of one :func:`_nelder_mead`. A
    counterexample is flagged when a product beats its unit-cycle baseline by
    more than a relative 1e-7.
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
    products = product_evaluator(n)
    maximize = np.arange(2 * restarts) % 2 == 0

    def objective(x: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        low, high = products(x)
        value = np.where(maximize[lanes], -low, high)
        value[~np.isfinite(value)] = math.inf
        return value

    def conductances_at(x: np.ndarray) -> tuple[float, ...]:
        return tuple(float(v) for v in np.exp(np.concatenate(([0.0], x))))

    dim = n - 1
    draws = [x for k in range(restarts) for x in _restart_draws(seed, k, 2 * (dim + 1) * dim)]
    lanes = _nelder_mead(objective, np.array(draws).reshape(2 * restarts, dim + 1, dim), iters_per_restart)

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
