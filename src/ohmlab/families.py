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
family. Only :func:`three_cycle_graph` and :func:`three_cycle_laplacian` take
the vertex-pair order (c01, c02, c12), which the CLI also uses for ``verify``
arguments and the 3-cycle columns of its figure CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .graphs import WeightedGraph, cycle, laplacian
from .linalg import SymmetricMatrix, eigen_sym
from .resistance import global_resistance, resistance_sums

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


def three_cycle_graph(c01: float, c02: float, c12: float) -> WeightedGraph:
    """3-cycle from the vertex-pair triple (c01, c02, c12), i.e. cycle(3, (c01, c12, c02))."""
    return cycle(3, (c01, c12, c02))


def three_cycle_laplacian(c01: float, c02: float, c12: float) -> SymmetricMatrix:
    """Laplacian of the 3-cycle with vertex-pair conductances (c01, c02, c12)."""
    return laplacian(three_cycle_graph(c01, c02, c12))


def _realize(family: str, parameter: float, conductances: Sequence[float]) -> CyclePoint:
    values = tuple(float(c) for c in conductances)
    for c in values:
        if not (math.isfinite(c) and c > 0.0):
            raise InfeasibleFamilyError(
                f"family {family!r} at parameter {parameter!r}: "
                f"conductances {values} are not all positive"
            )
    graph = cycle(len(values), values)
    spectrum = eigen_sym(laplacian(graph))
    rho = global_resistance(graph)
    eigenvalues = tuple(float(x) for x in spectrum.eigenvalues)
    products = tuple(x * rho for x in eigenvalues[1:])
    return CyclePoint(
        family=family,
        parameter=float(parameter),
        conductances=values,
        rho=rho,
        eigenvalues=eigenvalues,
        products=products,
    )


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
    return _realize("two-equal", b, (c01, b, b))


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


def figure_family(family: str, param: float) -> CyclePoint:
    """Realize one parameter value of a catalogued figure family.

    The free edge always comes from the constraint solver, so every returned
    point satisfies the family's target global resistance to round-off.
    """
    try:
        spec = FIGURE_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(FIGURE_FAMILIES)}"
        ) from None
    param = float(param)
    conductances: list[float | None] = [None] * spec.n
    for idx, formula in spec.fixed:
        value = float(formula(param))
        if not (math.isfinite(value) and value > 0.0):
            raise InfeasibleFamilyError(
                f"family {family!r} at parameter {param!r}: fixed edge {idx} "
                f"has non-positive value {value!r}"
            )
        conductances[idx] = value
    known = [c for c in conductances if c is not None]
    conductances[spec.solved_edge] = solve_last_cycle_conductance(known, spec.target_rho)
    return _realize(family, param, conductances)
