"""Parametrized conductance families on cycles with fixed global resistance.

Each family fixes all but one edge conductance through formulas in a single
parameter and solves the remaining one so that the cycle's global resistance
hits a target value. The constraint solver is the source of truth for the free
conductance; the catalogued closed-form expressions for families ``fig2`` and
``fig4`` fail the constant-resistance check and are kept only as reference
curves so the discrepancy stays visible (see ``reference_conductance``).

Every conductance tuple, 3-cycles included, is in cycle edge order
(c01, c12, ..., c_{n-1,0}), the order of :func:`~ohmlab.graphs.cycle`. One
solver gives the free edge of a whole grid of family points at once (its
one-row case is :func:`solve_last_cycle_conductance`), and one evaluator,
:func:`cycle_spectra`, the spectra and global resistances of a stack of such
cycles to every family point, scan, theorem check and search step. Both take
S and E from the one series sum, :func:`~ohmlab.resistance.resistance_sums`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

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
    """Declarative family: fixed-edge formulas (elementwise on arrays), one solved edge, a target rho."""

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
    global resistances as the cancellation-free 2E/S on the sums of
    :func:`~ohmlab.resistance.resistance_sums`. An overflowing diagonal raises
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
    total, pairs, exponents = resistance_sums(c)
    return eigenvalues, np.ldexp(2.0 * pairs / total, exponents)


class _FamilyGrid(NamedTuple):
    """Family points as arrays, one row per point: (m,) parameters, (m, n)
    conductances in edge order, (m, n) ascending eigenvalues and (m,) rho."""

    params: np.ndarray
    conductances: np.ndarray
    eigenvalues: np.ndarray
    rho: np.ndarray


def _spectra_of(params: np.ndarray, conductances: np.ndarray) -> _FamilyGrid:
    """The points with these parameters and (m, n) conductances, by one :func:`cycle_spectra` call."""
    return _FamilyGrid(params, conductances, *cycle_spectra(conductances))


def _realize(family: str, grid: _FamilyGrid) -> list[CyclePoint]:
    """One :class:`CyclePoint` per row of ``grid``."""
    return [
        CyclePoint(
            family=family,
            parameter=parameter,
            conductances=tuple(values),
            rho=rho,
            eigenvalues=tuple(spectrum),
            products=tuple(x * rho for x in spectrum[1:]),
        )
        for parameter, values, spectrum, rho
        in zip(grid.params.tolist(), grid.conductances.tolist(), grid.eigenvalues.tolist(), grid.rho.tolist())
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
    return _realize("two-equal", _spectra_of(np.array([b]), np.array([(c01, b, b)])))[0]


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
    """Conductance z giving the 3-cycle (z, x, y) rho = target_rho; kept for the benchmark's tracer."""
    return solve_last_cycle_conductance((x, y), target_rho)


def solve_last_cycle_conductance(known: Sequence[float], target_rho: float) -> float:
    """Remaining conductance of an n-cycle with n-1 edges known and rho prescribed.

    In resistance terms, with S the sum of the known edge resistances and E
    the sum of their pairwise products, the missing resistance is
    t = (rho S - 2E)/(2S - rho). This is the one-row case of the grid solver
    behind :func:`scan_family` and :func:`~ohmlab.extremal.monotonicity_check`.
    Known conductances must be positive and finite; infeasible input (a
    vanishing denominator or t <= 0), or a t whose conductance 1/t overflows,
    raises :class:`InfeasibleFamilyError`.
    """
    try:
        values = [float(c) for c in known]
    except TypeError:
        raise InfeasibleFamilyError(f"known conductances must be a flat sequence of reals, got {known!r}") from None
    if len(values) < 2:
        raise InfeasibleFamilyError(f"need at least 2 known conductances, got {len(values)}")
    if not all(0.0 < c < math.inf for c in values):
        raise InfeasibleFamilyError(f"known conductances must all be positive and finite, got {values}")
    if not target_rho > 0.0:
        raise InfeasibleFamilyError(f"target rho must be positive, got {target_rho!r}")
    (free,), diagnostics = _last_cycle_conductances([values], target_rho)
    if not math.isnan(free):
        return float(free)
    t, denominator, s, e, unit = (float(x[0]) for x in diagnostics)
    if abs(denominator) <= _DENOMINATOR_FLOOR:
        raise InfeasibleFamilyError(f"infeasible known edges for target rho: denominator {denominator / unit!r} "
                                    f"vanishes (S={s / unit!r}, rho={target_rho!r})")
    if t > 0.0:
        raise InfeasibleFamilyError(f"known edges and target rho give solved resistance {t / unit!r}, which is "
                                    f"positive but its conductance overflows (S={s / unit!r}, rho={target_rho!r})")
    raise InfeasibleFamilyError(f"infeasible known edges for target rho: solved resistance {t / unit!r} is not "
                                f"positive (S={s / unit!r}, E={e / unit / unit!r}, rho={target_rho!r})")


def _last_cycle_conductances(known, target_rho: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Free conductance of each row of an (m, n-1) array of known cycle conductances,
    NaN where none is positive and finite, and the (t, denominator, S, E, unit) behind it.

    S, E, rho and so t are scaled by the power of two ``unit`` of
    :func:`~ohmlab.resistance.resistance_sums`, which makes the denominator
    floor relative to S. A row with a known value that is not positive and
    finite gives a meaningless value; callers reject such rows.
    """
    # an infeasible row may overflow or divide by zero; it becomes NaN
    with np.errstate(all="ignore"):
        s, e, exponents = resistance_sums(known)
        unit = np.ldexp(1.0, -exponents)
        rho = target_rho * unit
        denominator = 2.0 * s - rho
        t = (rho * s - 2.0 * e) / denominator
        free = unit / np.where((np.abs(denominator) > _DENOMINATOR_FLOOR) & (t > 0.0), t, math.nan)
    return np.where(free < math.inf, free, math.nan), (t, denominator, s, e, unit)


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
# fixed global resistance and are emitted only for comparison: the catalogued
# fig2 edge gives rho = 2 + 2r(r - 3)/(r + 3)^2 and the fig4 edge rho = 4.
# The exact solved edges are (3 - r)/(2r + 1) for fig2 and
# (2c^2 - c + 2)/(c^2 + c + 1) for fig4, and z = (b + r - br)/(b + r - 1) on
# the rho = 2 family (z, b, r) of the lemma scans; the solver matches them to
# 8 ulps times their condition number |p z'(p)/z(p)|.
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


def _family_conductances(family: str, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) conductances of a family at m parameters, by one solve, and which rows are members."""
    spec = FIGURE_FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FIGURE_FAMILIES)}")
    conductances = np.empty((len(params), spec.n))
    # a fixed edge without a finite value, 1/c at c = 0, becomes inf and fails its row
    with np.errstate(all="ignore"):
        for idx, formula in spec.fixed:
            conductances[:, idx] = formula(params)
    known = np.delete(conductances, spec.solved_edge, axis=1)
    conductances[:, spec.solved_edge], _ = _last_cycle_conductances(known, spec.target_rho)
    return conductances, ((0.0 < conductances) & (conductances < math.inf)).all(axis=1)


def figure_family(family: str, param: float) -> CyclePoint:
    """Realize one parameter value of a catalogued figure family.

    The free edge always comes from the constraint solver, so every returned
    point satisfies the family's target global resistance to round-off. The
    point is bit for bit the row :func:`scan_family` gives for the same value.
    """
    param = float(param)
    (conductances,), (member,) = _family_conductances(family, np.array([param]))
    if not member:
        spec = FIGURE_FAMILIES[family]
        point = f"family {family!r} at parameter {param!r}"
        for idx, formula in spec.fixed:
            try:
                formula(param)
            except ZeroDivisionError:
                raise InfeasibleFamilyError(f"{point}: fixed edge {idx} divides by zero") from None
        # raises when the known edges leave the free edge no positive value
        solve_last_cycle_conductance(np.delete(conductances, spec.solved_edge).tolist(), spec.target_rho)
        raise InfeasibleFamilyError(f"{point}: conductances {conductances.tolist()} are not all positive and finite")
    return _realize(family, _spectra_of(np.array([param]), conductances[None]))[0]


def _feasible_grid(family: str, param_grid: Iterable[float]) -> _FamilyGrid:
    """The feasible points of a family over a parameter grid, ascending in the parameter.

    NaN and infeasible parameters are dropped; if none is left a ValueError is
    raised. One solve gives the free edge of every point, and one
    :func:`cycle_spectra` call the spectra and rho of the members. This is the
    core behind :func:`scan_family` and the ``figure`` command's CSV.
    """
    params = np.fromiter(map(float, param_grid), dtype=float)
    # a stable sort keeps the order of equal values, as sorted() would
    params = np.sort(params[~np.isnan(params)], kind="stable")
    conductances, members = _family_conductances(family, params)
    if not members.any():
        raise ValueError(f"no feasible grid points for family {family!r}")
    return _spectra_of(params[members], conductances[members])


def scan_family(family: str, param_grid: Sequence[float]) -> list[CyclePoint]:
    """Realize a figure family over a parameter grid, ordered by parameter.

    Infeasible and NaN grid points are skipped; if none are feasible a
    ValueError is raised. The skipped count is the grid size minus the
    returned row count. One solve gives the free edge of every point, and one
    :func:`cycle_spectra` call realizes all feasible points together.
    """
    return _realize(family, _feasible_grid(family, param_grid))
