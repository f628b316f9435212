"""Numerics of weighted n-cycles, stacked one cycle per row.

Every conductance tuple is in cycle edge order (c01, c12, ..., c_{n-1,0}),
the order of :func:`~ohmlab.graphs.cycle`, and every function but
:func:`cycle_rho_closed_form` takes a stack of cycles, one per row, so a grid
or a batch of search points costs one numpy pass. This module owns the
numbers behind every cycle result:

- :func:`resistance_sums`, the series sums S and E of the edge resistances;
- :func:`cycle_rhos`, the global resistance rho = 2E/S of a stack, which
  :func:`cycle_rho_closed_form` checks and gives for one cycle;
- :func:`cycle_spectra`, the Laplacian eigenvalues and rho of a stack;
- :func:`last_cycle_conductances`, the free conductance that gives a target
  rho, the core of the family solver;
- :func:`product_evaluator`, the search's (lambda_1 rho, lambda_max rho) at
  log-conductances.

Graph objects and their resistance matrices are :mod:`ohmlab.resistance`'s,
the figure families :mod:`ohmlab.families`' and the verdicts, scans and
search :mod:`ohmlab.extremal`'s.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .graphs import GraphError

#: Below this conductance, a resistance or a sum of them may leave the float range.
_SMALL_CONDUCTANCE = math.ldexp(1.0, -1000)
#: A row whose resistances sum past the float range is summed again with its
#: largest resistance near 2 to this power.
_FAR_SUM_EXPONENT = 500
#: Scaled denominators of the solve at or below this vanish.
DENOMINATOR_FLOOR = 1e-14


def resistance_sums(conductances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, E, exponent) of edges in series, over the last axis of a (..., k) array:
    the sum of the resistances r_e = 1/c_e and of their pairwise products
    r_e r_f over e < f, of the r_e scaled by 2^-exponent, the power of two
    that brings S into [1/2, 1). The exact scaling keeps E from underflowing
    or overflowing. A row of a stack gives the bits it gives alone.

    A row whose resistances do not sum finitely, as with a subnormal
    conductance, is summed again from its conductances scaled by the power
    of two that puts its largest resistance near 2^500, and keeps that S:
    brought into [1/2, 1), its small resistances would fall subnormal. A row
    with a conductance that is not positive and finite gives NaN or a
    meaningless value, without a warning; callers reject such rows.
    """
    c = np.asarray(conductances, dtype=float)
    # a resistance, or a sum of them, can leave the float range only below the
    # bound; NaN fails the test too
    if c.size and not np.minimum.reduce(c, axis=None) >= _SMALL_CONDUCTANCE:
        with np.errstate(all="ignore"):
            return _sum_far_rows_again(c, *_scaled_sums(c))
    return _scaled_sums(c)


# Here and in resistance_sums, the ufunc methods stand in for ``sum``,
# ``cumsum`` and ``min``: the same bits without their Python wrappers, which
# cost more than the arithmetic on a search batch.
def _scaled_sums(c: np.ndarray, exponents: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, E, exponent) of the resistances of ``c`` scaled by 2^-exponent: by
    default the exponent that brings S into [1/2, 1), else the given one per
    row, applied to the conductances before 1/c and kept whatever S becomes."""
    if exponents is None:
        r = 1.0 / c
        total, exponents = np.frexp(np.add.reduce(r, axis=-1))
        return total, _pair_sums(np.ldexp(r, -exponents[..., None])), exponents
    r = 1.0 / np.ldexp(c, exponents[..., None])
    return np.add.reduce(r, axis=-1), _pair_sums(r), exponents


def _pair_sums(r: np.ndarray) -> np.ndarray:
    return np.add.reduce(r[..., 1:] * np.add.accumulate(r, axis=-1)[..., :-1], axis=-1)


def _sum_far_rows_again(c: np.ndarray, total: np.ndarray, pairs: np.ndarray,
                        exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sums of :func:`_scaled_sums`, with every row whose resistances sum
    past the float range summed again from its conductances scaled by
    2^exponent, which takes the smallest, in [2^(k-1), 2^k), into [2^-501, 2^-500)."""
    far = ~np.isfinite(total)
    if not far.any():
        return total, pairs, exponents
    exponents = np.where(far, -_FAR_SUM_EXPONENT - np.frexp(np.minimum.reduce(c, axis=-1))[1], exponents)
    again, pairs_again, _ = _scaled_sums(c, exponents)
    # a zero or NaN conductance still sums to inf or NaN: NaN, so rho is NaN without a warning
    again = np.where(np.isfinite(again), again, math.nan)
    return np.where(far, again, total), np.where(far, pairs_again, pairs), exponents


def cycle_rhos(conductances) -> np.ndarray:
    """Global resistances 2^e 2E/S of a (..., n) stack of cycles, from the sums of :func:`resistance_sums`."""
    total, pairs, exponents = resistance_sums(conductances)
    return np.ldexp(2.0 * pairs / total, exponents)


def cycle_rho_closed_form(conductances: Sequence[float]) -> float:
    """Global resistance of an n-cycle by series-parallel reduction.

    With edge resistances r_e = 1/c_e and S their sum, each adjacent pair
    sees r_e (S - r_e) / S, so the total is (S^2 - sum of r_e^2) / S = 2E/S,
    E being the sum of the pairwise products r_e r_f. E adds positive terms
    only, so the result keeps full relative accuracy at any conductance ratio
    up to about 2^1022, and :func:`resistance_sums` scales it free of
    underflow and overflow. A rho past the float range reads inf.
    """
    try:
        values = [float(c) for c in conductances]
    except TypeError:
        raise GraphError(f"conductances must be a flat sequence of reals, got {conductances!r}") from None
    if len(values) < 3:
        raise GraphError(f"a cycle needs at least 3 conductances, got {len(values)}")
    if not all(0.0 < c < math.inf for c in values):
        raise GraphError(f"conductances must all be positive and finite, got {values}")
    with np.errstate(over="ignore"):
        return float(cycle_rhos(values))


@functools.cache
def _cycle_positions(n: int) -> tuple[np.ndarray, ...]:
    """Flat row-major positions of H[k, k+1], H[k+1, k], H[k, k], and each vertex's predecessor."""
    indices = np.arange(n)
    successors = np.roll(indices, -1)
    return indices * n + successors, successors * n + indices, indices * (n + 1), np.roll(indices, 1)


def cycle_spectra(conductances) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian eigenvalues and global resistances of a stack of n-cycles.

    Takes an (m, n) array of positive conductances, one cycle per row in edge
    order. Returns the (m, n) ascending eigenvalues, from one
    ``numpy.linalg.eigvalsh`` call on the stacked Laplacians, and the (m,)
    global resistances of :func:`cycle_rhos`. An overflowing diagonal raises
    ``ValueError``; ``numpy.linalg.LinAlgError`` propagates.
    """
    c = np.asarray(conductances, dtype=float)
    m, n = c.shape
    upper, lower, diagonal, predecessors = _cycle_positions(n)
    degrees = c + c[:, predecessors]
    if not np.isfinite(degrees).all():
        raise ValueError("matrix entries must be finite")
    h = np.zeros((m, n * n))
    h[:, upper] = h[:, lower] = -c
    h[:, diagonal] = degrees
    eigenvalues = np.linalg.eigvalsh(h.reshape(m, n, n))
    return eigenvalues, cycle_rhos(c)


def last_cycle_conductances(known, target_rho: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Free conductance of each row of an (m, n-1) array of known cycle conductances,
    NaN where none is positive and finite, and the (t, denominator, S, E, unit) behind it.

    In resistance terms, with S the sum of the known edge resistances and E
    the sum of their pairwise products, the missing resistance is
    t = (rho S - 2E)/(2S - rho). S, E, rho and so t are scaled by the power of
    two ``unit`` of :func:`resistance_sums`, which makes the denominator floor
    relative to S. A row that :func:`resistance_sums` sums again has a true S
    past the float range, which no finite target rho reaches, so its
    denominator exceeds its S. A row with a known value that is not positive
    and finite gives a meaningless value; callers reject such rows.
    """
    # an infeasible row may overflow or divide by zero; it becomes NaN
    with np.errstate(all="ignore"):
        s, e, exponents = resistance_sums(known)
        unit = np.ldexp(1.0, -exponents)
        rho = target_rho * unit
        denominator = 2.0 * s - rho
        t = (rho * s - 2.0 * e) / denominator
        free = unit / np.where((np.abs(denominator) > DENOMINATOR_FLOOR) & (t > 0.0), t, math.nan)
    return np.where(free < math.inf, free, math.nan), (t, denominator, s, e, unit)


def product_evaluator(n: int) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(lambda_1 rho, lambda_max rho) of n-cycles with log-conductances (0, x...).

    Takes an (m, n-1) stack of points and returns two length-m arrays. Pinning
    the first coordinate removes the scale gauge: the products are invariant
    under global conductance scaling. The whole stack goes through one
    :func:`cycle_spectra` call. Rows whose conductances would overflow or
    underflow, and rows LAPACK fails on, yield (nan, nan).
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
