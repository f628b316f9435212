"""Parametrized conductance families on cycles with fixed global resistance.

Each family fixes all but one edge conductance through formulas in a single
parameter and solves the remaining one so that the cycle's global resistance
hits a target value. The constraint solver is the source of truth for the free
conductance; the catalogued closed-form expressions for families ``fig2`` and
``fig4`` fail the constant-resistance check and are kept only as reference
curves so the discrepancy stays visible (see ``reference_conductance``).

Every conductance tuple, 3-cycles included, is in cycle edge order
(c01, c12, ..., c_{n-1,0}), the order of :func:`~ohmlab.graphs.cycle`, and one
solver, :func:`solve_last_cycle_conductance`, supplies the free edge of every
family. One evaluator, :func:`cycle_spectra`, gives the spectra and global
resistances of a stack of such cycles to every family point, scan, theorem
check and search step, a whole grid or search batch at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .resistance import resistance_sums

THREE_CYCLE_TARGET_RHO = 2.0
FOUR_CYCLE_TARGET_RHO = 3.0
_DENOMINATOR_FLOOR = 1e-14


class InfeasibleFamilyError(ValueError):
    """The requested parameters admit no positive conductance solution."""


@dataclass(frozen=True)
class CyclePoint:
    """One realized family member: conductances, spectrum, global resistance, products."""

    family: str
    parameter: float
    conductances: tuple[float, ...]
    rho: float
    eigenvalues: tuple[float, ...]
    products: tuple[float, ...]

    @property
    def lambda1_rho(self) -> float:
        return self.products[0]

    @property
    def lambdamax_rho(self) -> float:
        return self.products[-1]


@dataclass(frozen=True)
class FamilySpec:
    """Declarative family: fixed-edge formulas plus one solved edge and a target rho."""

    name: str
    n: int
    fixed: tuple[tuple[int, Callable[[float], float]], ...]
    solved_edge: int
    target_rho: float

    def __post_init__(self):
        if not self.target_rho > 0.0:
            raise ValueError("target rho must be positive")
        indices = {idx for idx, _ in self.fixed} | {self.solved_edge}
        if len(self.fixed) != self.n - 1 or len(indices) != self.n:
            raise ValueError("family must fix all edges except exactly one")


class ClosedFormEigenvalues(NamedTuple):
    """Positive eigenvalues of the two-equal family, raw and ascending."""

    values: tuple[float, float]
    ordered: tuple[float, float]


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
    global resistances as the cancellation-free 2E/S, E summed over a
    cumulative sum. An overflowing diagonal raises ``ValueError``;
    ``numpy.linalg.LinAlgError`` propagates.
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
    # E sums products of resistances: dividing each row by the power of two
    # that brings its S into [1/2, 1) keeps E from underflowing or overflowing,
    # and 2E/S scales back exactly
    r = 1.0 / c
    total, exponents = np.frexp(r.sum(axis=1))
    r = np.ldexp(r, -exponents[:, None])
    pairs = (r[:, 1:] * np.cumsum(r, axis=1)[:, :-1]).sum(axis=1)
    return eigenvalues, np.ldexp(2.0 * pairs / total, exponents)


def _realize(family: str, points: Sequence[tuple[float, tuple[float, ...]]]) -> list[CyclePoint]:
    """Family points from (parameter, positive conductances) pairs, by one :func:`cycle_spectra` call."""
    eigenvalues, rhos = cycle_spectra([values for _, values in points])
    return [
        CyclePoint(
            family=family,
            parameter=parameter,
            conductances=values,
            rho=rho,
            eigenvalues=tuple(spectrum),
            products=tuple(x * rho for x in spectrum[1:]),
        )
        for (parameter, values), spectrum, rho in zip(points, eigenvalues.tolist(), rhos.tolist())
    ]


def two_equal_family(b: float) -> CyclePoint:
    """3-cycle (b(2-b)/(2b-1), b, b), whose global resistance is 2.

    Positivity of the solved conductance restricts b to the open interval
    (1/2, 2); b = 2 would give a zero conductance, i.e. a path, and is
    rejected even though the limit is well defined.
    """
    b = float(b)
    if not 0.5 < b < 2.0:
        raise InfeasibleFamilyError(
            f"two-equal family needs b strictly inside (1/2, 2), got {b!r}"
        )
    c01 = b * (2.0 - b) / (2.0 * b - 1.0)
    return _realize("two-equal", [(b, (c01, b, b))])[0]


def two_equal_eigenvalues(b: float) -> ClosedFormEigenvalues:
    """Closed-form positive eigenvalues 3b/(2b-1) and 3b of the two-equal family.

    ``values`` keeps that fixed order; ``ordered`` sorts ascending, so
    ``ordered[0]`` is 3b for b <= 1 and 3b/(2b-1) for b >= 1.
    """
    b = float(b)
    if not 0.5 < b < 2.0:
        raise InfeasibleFamilyError(
            f"two-equal family needs b strictly inside (1/2, 2), got {b!r}"
        )
    pair = (3.0 * b / (2.0 * b - 1.0), 3.0 * b)
    lo, hi = sorted(pair)
    return ClosedFormEigenvalues(values=pair, ordered=(lo, hi))


def solve_third_conductance(x: float, y: float, target_rho: float) -> float:
    """Conductance z making the 3-cycle (z, x, y) have global resistance target_rho."""
    return solve_last_cycle_conductance((x, y), target_rho)


def solve_last_cycle_conductance(known: Sequence[float], target_rho: float) -> float:
    """Remaining conductance of an n-cycle with n-1 edges known and rho prescribed.

    In resistance terms, with S the sum of the known edge resistances and E
    the sum of their pairwise products, the missing resistance is
    t = (rho S - 2E)/(2S - rho). Works on plain floats: callers pass two or
    three knowns, where numpy's per-call overhead would dominate. Infeasible
    input (a vanishing denominator or t <= 0) raises
    :class:`InfeasibleFamilyError`.
    """
    try:
        values = [float(c) for c in known]
    except TypeError:
        raise InfeasibleFamilyError(f"known conductances must be a flat sequence of reals, got {known!r}") from None
    if len(values) < 2:
        raise InfeasibleFamilyError(f"need at least 2 known conductances, got {len(values)}")
    if not all(c > 0.0 for c in values):
        raise InfeasibleFamilyError(f"known conductances must all be positive, got {values}")
    if not target_rho > 0.0:
        raise InfeasibleFamilyError(f"target rho must be positive, got {target_rho!r}")
    s, e = resistance_sums(values)
    denominator = 2.0 * s - target_rho
    if abs(denominator) <= _DENOMINATOR_FLOOR:
        raise InfeasibleFamilyError(
            f"infeasible known edges for target rho: denominator {denominator!r} vanishes "
            f"(S={s!r}, rho={target_rho!r})"
        )
    t = (target_rho * s - 2.0 * e) / denominator
    if not t > 0.0:
        raise InfeasibleFamilyError(
            f"infeasible known edges for target rho: solved resistance {t!r} is not positive "
            f"(S={s!r}, E={e!r}, rho={target_rho!r})"
        )
    return 1.0 / t


# Edge k joins vertices k and k+1 (mod n): 3-cycles (0: c01, 1: c12, 2: c02)
# at rho = 2, 4-cycles (0: c01, 1: c12, 2: c23, 3: c03) at rho = 3.
FIGURE_FAMILIES: dict[str, FamilySpec] = {
    "fig1": FamilySpec("fig1", 3, ((1, lambda b: b), (2, lambda b: b)), 0, THREE_CYCLE_TARGET_RHO),
    "fig2": FamilySpec("fig2", 3, ((1, lambda r: 1.5), (2, lambda r: r)), 0, THREE_CYCLE_TARGET_RHO),
    "fig3": FamilySpec("fig3", 3, ((0, lambda r: 0.75), (2, lambda r: r)), 1, THREE_CYCLE_TARGET_RHO),
    "fig4": FamilySpec("fig4", 4, ((1, lambda c: 1.0 / c), (2, lambda c: c), (3, lambda c: 1.0)), 0,
                       FOUR_CYCLE_TARGET_RHO),
    "fig5": FamilySpec("fig5", 4, ((1, lambda c: 1.0 / c), (2, lambda c: c), (3, lambda c: (c + 1.0) / 2.0)), 0,
                       FOUR_CYCLE_TARGET_RHO),
}

# Catalogued closed forms for the solved edge. fig1 and fig3 agree with the
# constraint solver; the fig2 and fig4 expressions do NOT satisfy the family's
# fixed global resistance and are emitted only for comparison.
REFERENCE_FORMULAS: dict[str, Callable[[float], float]] = {
    "fig1": lambda b: b * (2.0 - b) / (2.0 * b - 1.0),
    "fig2": lambda r: (3.0 - r) / (r + 1.0),
    "fig3": lambda r: (r + 3.0) / (4.0 * r - 1.0),
    "fig4": lambda c: (1.0 + c * c - c) / (1.0 + c * c + c),
}

#: Families whose catalogued formula disagrees with the constraint solver.
DISPUTED_REFERENCES = frozenset({"fig2", "fig4"})


def reference_conductance(family: str, param: float) -> float | None:
    """Catalogued closed-form value of the solved edge, or None if not catalogued."""
    formula = REFERENCE_FORMULAS.get(family)
    if formula is None:
        return None
    try:
        return float(formula(float(param)))
    except ZeroDivisionError:
        return math.nan


def _family_conductances(family: str, param: float) -> tuple[float, ...]:
    """Conductances of one family member: fixed-edge formulas plus the solved edge."""
    spec = FIGURE_FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FIGURE_FAMILIES)}")
    conductances = [0.0] * spec.n
    for idx, formula in spec.fixed:
        try:
            conductances[idx] = float(formula(param))
        except ZeroDivisionError:
            raise InfeasibleFamilyError(f"family {family!r} at parameter {param!r}: "
                                        f"fixed edge {idx} divides by zero") from None
    known = [c for k, c in enumerate(conductances) if k != spec.solved_edge]
    conductances[spec.solved_edge] = solve_last_cycle_conductance(known, spec.target_rho)
    if not all(0.0 < c < math.inf for c in conductances):
        raise InfeasibleFamilyError(f"family {family!r} at parameter {param!r}: "
                                    f"conductances {conductances} are not all positive and finite")
    return tuple(conductances)


def figure_family(family: str, param: float) -> CyclePoint:
    """Realize one parameter value of a catalogued figure family.

    The free edge always comes from the constraint solver, so every returned
    point satisfies the family's target global resistance to round-off. The
    point is bit for bit the row :func:`scan_family` gives for the same value.
    """
    param = float(param)
    return _realize(family, [(param, _family_conductances(family, param))])[0]


def scan_family(family: str, param_grid: Sequence[float]) -> list[CyclePoint]:
    """Realize a figure family over a parameter grid, ordered by parameter.

    Infeasible and NaN grid points are skipped; if none are feasible a
    ValueError is raised. The skipped count is the grid size minus the
    returned row count. One :func:`cycle_spectra` call realizes all feasible
    points together.
    """
    points = []
    # sorted() cannot order a list holding a NaN
    for param in sorted(p for p in map(float, param_grid) if not math.isnan(p)):
        try:
            points.append((param, _family_conductances(family, param)))
        except InfeasibleFamilyError:
            continue
    if not points:
        raise ValueError(f"no feasible grid points for family {family!r}")
    return _realize(family, points)
