"""Eigenvalue-resistance product bounds, monotonicity scans, and counterexample search.

For a weighted 3-cycle the products lambda_1 * rho and lambda_2 * rho of the
positive Laplacian eigenvalues with the global resistance are bounded by 6
from above and below respectively, with equality exactly at equal weights.
This module verifies that bound in closed form, realizes the monotonicity
statements behind it as numerical scans, and searches larger cycles for
weights that beat equal weights on lambda_1 * rho.

On every n-cycle, equal weights minimize lambda_max * rho. With c-bar the mean
of the conductances c in every entry:

- lambda_max(L(c)) is the maximum over unit v of sum_e c_e (v_i - v_j)^2, a
  maximum of linear functions of c, so it is convex in c;
- each adjacent pair's effective conductance is a minimum of linear functions
  of c (Dirichlet's principle), so it is concave, its reciprocal R_e is
  convex, and so is rho = sum_e R_e;
- both are invariant under rotating the cycle, and the average of c's n
  rotations is c-bar, so by Jensen lambda_max(c-bar) <= lambda_max(c) and
  rho(c-bar) <= rho(c): lambda_max rho(c) >= lambda_max rho(c-bar), the
  unit-cycle value.

The argument fails for lambda_1, which is concave (Fiedler 1973): averaging
raises it while it lowers rho. So the search runs the maximizing direction
alone, and reports the lambda_max * rho side as the proved minimum at equal
weights. It advances every restart in lockstep from starting simplices drawn
from numpy's ``default_rng([seed, restart])`` PCG64 stream, reproduced in
Python integers without ``numpy.random``. This module owns the verdicts, the
scans and the Nelder-Mead driver; the numbers come from
:mod:`ohmlab.cycles`: one :func:`~ohmlab.cycles.cycle_spectra` call per
monotonicity grid, and one :func:`~ohmlab.cycles.product_evaluator` call per
batch of search points.
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
    """Best lambda_1 rho found by one restart of the maximizing search.

    ``max_iterations`` counts Nelder-Mead iterations, ``max_evaluations``
    product evaluations, ``max_converged`` tells whether the simplex diameter
    fell below 1e-9 before the iteration cap, and ``max_nonfinite`` counts
    evaluations whose product was NaN or infinite.
    """

    restart: int
    max_product: float
    max_conductances: tuple[float, ...]
    max_iterations: int
    max_evaluations: int
    max_converged: bool
    max_nonfinite: int


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the extremal search on an n-cycle against unit-cycle baselines.

    ``best_min_product`` and ``best_min_conductances`` are the proved minimum
    of lambda_max rho, ``baseline_high`` at equal weights, not a search result.
    """

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

    The products come in closed form, with no eigensolve. With s1 = sum c_i,
    s2 = sum c_i c_j and D = sum (c_i - c_j)^2 / 2 = s1^2 - 3 s2, the
    Laplacian's positive eigenvalues are s1 -+ sqrt(D) and rho = 2 s1 / s2, so
    lambda_1 rho = 6 s1 / (s1 + sqrt(D)) and lambda_2 rho = 2 s1 (s1 + sqrt(D)) / s2.
    Every operation adds positive terms or squares a difference of inputs,
    so both keep full relative accuracy at any ratio. They are computed on
    the conductances scaled by the power of two that brings the largest into
    [1/2, 1), so no square overflows and the products are the same at every
    2^k; a conductance that scaling rounds moves by at most 2^-1075 of the largest.
    ``rho`` is scaled back and reads inf where it exceeds the float range.
    lambda_1 rho lies in [3, 6]; a lambda_2 rho past the float range raises
    ``numpy.linalg.LinAlgError`` instead of a verdict, and nothing else does.
    """
    values = tuple(float(x) for x in conductances)
    if len(values) != 3:
        raise ValueError(f"expected 3 conductances, got {len(values)}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not all(0.0 < c < math.inf for c in values):
        raise GraphError(f"conductances must be positive finite reals, got {values}")
    exponent = math.frexp(max(values))[1]
    c0, c1, c2 = (math.ldexp(c, -exponent) for c in values)
    s1 = c0 + c1 + c2
    s2 = c0 * c1 + c1 * c2 + c2 * c0
    d01, d12, d20 = c0 - c1, c1 - c2, c2 - c0
    root = math.sqrt((d01 * d01 + d12 * d12 + d20 * d20) / 2.0)
    lambda1_rho = 6.0 * s1 / (s1 + root)
    # s2 is 0 only where two conductances round to 0 beside the largest
    lambdamax_rho = 2.0 * s1 * (s1 + root) / s2 if s2 else math.inf
    if not lambdamax_rho < math.inf:
        raise np.linalg.LinAlgError(f"lambda_2 rho of the 3-cycle {values} exceeds the float range")
    # rho = 2 s1 / s2 at 2^-exponent, divided by s2's mantissa so it cannot overflow before the scaling back
    mantissa, shift = math.frexp(s2)
    with np.errstate(over="ignore"):
        rho = float(np.ldexp(2.0 * s1 / mantissa, -exponent - shift))
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


def _nelder_mead(fn: Callable[[np.ndarray], np.ndarray], simplices: np.ndarray,
                 max_iters: int) -> _LaneResults:
    """Minimize fn on every lane of a (lanes, dim+1, dim) simplex stack in lockstep.

    ``fn(points)`` evaluates a stack of points, one value per row. Each lane
    follows the scalar method exactly and independently of the others:
    coefficients reflection 1, expansion 2, contraction 0.5 and shrink 0.5,
    a stable sort of the vertices every iteration, and a stop when the
    simplex diameter drops below 1e-9
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
        f = fn(x)
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
    """Search n-cycle conductances maximizing lambda_1 rho against the unit-cycle baseline.

    Equal weights minimize lambda_max rho on every n-cycle. lambda_max and rho
    are convex in the conductances c and invariant under rotating the cycle,
    so by Jensen their values at c-bar, the mean of c's rotations, are at most
    their values at c. So the minimizing direction is not searched:
    ``best_min_product`` is ``baseline_high`` at unit conductances, and the
    margin is the relative excess of the best lambda_1 rho over
    ``baseline_low`` alone. lambda_1 is concave, so the argument fails there.

    Restart k draws the vertices of one simplex log-uniformly in [-3, 3] per
    coordinate: the first n (n-1) values of numpy's
    ``default_rng([seed, k]).uniform(-3.0, 3.0)`` PCG64 stream, reproduced
    without ``numpy.random``. All restarts run Nelder-Mead on -lambda_1 rho in
    lockstep, as lane k of one :func:`_nelder_mead`. A counterexample is
    flagged when the margin exceeds a relative 1e-7.
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

    def objective(x: np.ndarray) -> np.ndarray:
        value = -products(x)[0]
        value[~np.isfinite(value)] = math.inf
        return value

    dim = n - 1
    draws = [x for k in range(restarts) for x in _restart_draws(seed, k, (dim + 1) * dim)]
    lanes = _nelder_mead(objective, np.array(draws).reshape(restarts, dim + 1, dim), iters_per_restart)

    records = tuple(
        RestartBest(
            restart=k,
            max_product=-float(lanes.values[k]),
            max_conductances=tuple(float(v) for v in np.exp(np.concatenate(([0.0], lanes.points[k])))),
            max_iterations=int(lanes.iterations[k]),
            max_evaluations=int(lanes.evaluations[k]),
            max_converged=bool(lanes.converged[k]),
            max_nonfinite=int(lanes.nonfinite[k]),
        )
        for k in range(restarts))
    best = max(records, key=lambda rec: rec.max_product)
    margin = best.max_product / baseline_low - 1.0
    return SearchReport(
        n=n,
        trials=restarts,
        seed=seed,
        baseline_low=baseline_low,
        baseline_high=baseline_high,
        best_max_product=best.max_product,
        best_max_conductances=best.max_conductances,
        best_min_product=baseline_high,
        best_min_conductances=(1.0,) * n,
        counterexample=bool(margin > COUNTEREXAMPLE_MARGIN),
        margin=margin,
        per_restart=records,
    )
