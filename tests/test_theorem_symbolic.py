"""The paper's 3-cycle theorem as symbolic identities, and the evaluator against them.

With conductances a, b, c, sigma1 = a + b + c, sigma2 = ab + bc + ca and
D = sqrt(sigma1^2 - 3 sigma2) = sqrt(((a-b)^2 + (b-c)^2 + (c-a)^2) / 2), the
Laplacian's positive eigenvalues are sigma1 -+ D and rho = 2 sigma1 / sigma2.
Then 6 - lambda_1 rho = 6D / (sigma1 + D) and lambda_2 rho - 6 = 2 sigma1 D /
sigma2 + 2 D^2 / sigma2, both non-negative and zero exactly when D = 0, that is
at equal weights: lambda_1 rho <= 6 <= lambda_2 rho.

The exact solved edges of fig2, fig4 and the rho = 2 family hold rho exactly,
on the grounded Laplacian, and the family solver matches them in rationals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from ohmlab.families import (FIGURE_FAMILIES, REFERENCE_FORMULAS, _family_conductances, _last_cycle_conductances,
                             cycle_spectra)

from conftest import log_uniform

a, b, c = sp.symbols("a b c", positive=True)
lam = sp.symbols("lambda")
SIGMA1 = a + b + c
SIGMA2 = a * b + b * c + c * a


def test_characteristic_polynomial():
    laplacian = sp.Matrix([[a + c, -a, -c], [-a, a + b, -b], [-c, -b, b + c]])
    char = (lam * sp.eye(3) - laplacian).det()
    assert sp.expand(char - lam * (lam**2 - 2 * SIGMA1 * lam + 3 * SIGMA2)) == 0


def test_rho_from_series_parallel_reduction():
    r = [1 / a, 1 / b, 1 / c]
    total = sum(r)
    rho = sum(re * (total - re) / total for re in r)
    assert sp.simplify(rho - 2 * SIGMA1 / SIGMA2) == 0


def test_theorem_identities():
    d = sp.symbols("D", positive=True)
    discriminant = SIGMA1**2 - 3 * SIGMA2
    assert sp.expand(discriminant - ((a - b)**2 + (b - c)**2 + (c - a)**2) / 2) == 0
    lam1, lam2 = SIGMA1 - d, SIGMA1 + d
    rho = 2 * SIGMA1 / SIGMA2

    def on_curve(expr):
        # the numerator's remainder modulo D^2 - (sigma1^2 - 3 sigma2), as a polynomial in D
        return sp.expand(sp.rem(sp.expand(sp.numer(sp.together(expr))), d**2 - discriminant, d))

    # sigma1 -+ D are the roots of the quadratic factor
    for root in (lam1, lam2):
        assert on_curve(root**2 - 2 * SIGMA1 * root + 3 * SIGMA2) == 0
    assert on_curve(lam1 * lam2 - 3 * SIGMA2) == 0
    assert on_curve((6 - lam1 * rho) - 6 * d / (SIGMA1 + d)) == 0
    assert on_curve((lam2 * rho - 6) - (2 * SIGMA1 * d / SIGMA2 + 2 * discriminant / SIGMA2)) == 0


def test_cycle_spectra_matches_closed_form():
    rng = np.random.default_rng(71)
    conductances = log_uniform(rng, 1e-2, 1e2, size=(300, 3))
    eigenvalues, rho = cycle_spectra(conductances)
    for (x, y, z), values, rho_k in zip(conductances.tolist(), eigenvalues, rho):
        sigma1, sigma2 = x + y + z, x * y + y * z + z * x
        lam2 = sigma1 + math.sqrt(((x - y) ** 2 + (y - z) ** 2 + (z - x) ** 2) / 2.0)
        lam1 = 3.0 * sigma2 / lam2  # sigma1 - D without cancellation
        assert np.all(np.abs(values - [0.0, lam1, lam2]) <= 1e-12 * lam2)
        assert abs(rho_k - 2.0 * sigma1 / sigma2) <= 1e-14 * rho_k


def _grounded_rho(conductances):
    """Global resistance of a symbolic cycle, each adjacent pair's resistance read
    off the inverse of the Laplacian with vertex 0 grounded."""
    n = len(conductances)
    laplacian = sp.zeros(n, n)
    for k, conductance in enumerate(conductances):
        i, j = k, (k + 1) % n
        laplacian[i, i] += conductance
        laplacian[j, j] += conductance
        laplacian[i, j] -= conductance
        laplacian[j, i] -= conductance
    inverse = laplacian[1:, 1:].inv()
    rho = 0
    for i in range(n):
        potentials = sp.zeros(n - 1, 1)
        for vertex, sign in ((i, 1), ((i + 1) % n, -1)):
            if vertex:
                potentials[vertex - 1] = sign
        rho += (potentials.T * inverse * potentials)[0, 0]
    return sp.cancel(sp.together(rho))


p, r = sp.symbols("p r", positive=True)
#: Exact solved edges, in edge order with the fixed edges of FIGURE_FAMILIES.
EXACT_FORMS = {
    "fig2": ((3 - p) / (2 * p + 1), lambda z: [z, sp.Rational(3, 2), p], 2),
    "fig4": ((2 * p**2 - p + 2) / (p**2 + p + 1), lambda z: [z, 1 / p, p, 1], 3),
}
#: The rho = 2 family (z, b, r) behind the lemma 4.3/4.4 scans.
RHO2_FORM = (b + r - b * r) / (b + r - 1)


def test_exact_solved_edges_hold_rho():
    for form, cycle_of, target in EXACT_FORMS.values():
        assert _grounded_rho(cycle_of(form)) == target
    assert _grounded_rho([RHO2_FORM, b, r]) == 2


def test_catalogued_references_miss_rho():
    # the catalogue's float literals are small integers; nsimplify makes them exact
    fig2, fig4 = (sp.nsimplify(REFERENCE_FORMULAS[family](p), rational=True) for family in ("fig2", "fig4"))
    assert sp.cancel(_grounded_rho([fig2, sp.Rational(3, 2), p]) - (2 + 2 * p * (p - 3) / (p + 3) ** 2)) == 0
    assert _grounded_rho([fig4, 1 / p, p, 1]) == 4


def _assert_within_conditioned_ulps(solved, exact, kappa, args):
    """|solved - exact| <= 8 ulps x max(1, kappa), exact evaluated in rationals."""
    for value, point in zip(solved, args):
        truth = exact(*map(Fraction, point))
        error = abs(Fraction(value) - truth) / Fraction(math.ulp(float(truth)))
        assert error <= 8 * max(1.0, kappa(*point)), (point, float(error))


@pytest.mark.parametrize("family,grid", [
    ("fig2", np.linspace(0.2, 2.8, 2000)),
    ("fig2", np.linspace(0.01, 2.999999, 2000)),
    ("fig4", np.linspace(0.4, 2.5, 2000)),
    ("fig4", np.geomspace(1e-3, 1e3, 2000)),
])
def test_solver_matches_exact_forms(family, grid):
    # kappa = |p z'(p) / z(p)| is the condition number of z; near fig2's
    # r = 3, where z vanishes, it reaches about 300 and the raw error 575 ulps
    form = EXACT_FORMS[family][0]
    exact = sp.lambdify(p, form, modules="math")
    kappa = sp.lambdify(p, sp.Abs(p * sp.diff(form, p) / form), modules="math")
    conductances, members = _family_conductances(family, grid)
    assert members.all()
    solved = conductances[:, FIGURE_FAMILIES[family].solved_edge].tolist()
    _assert_within_conditioned_ulps(solved, exact, kappa, [(x,) for x in grid.tolist()])


def test_solver_matches_rho2_form():
    rng = np.random.default_rng(43)
    rows = []
    # the lemma 4.3/4.4 regimes: b <= r < b/(b-1) for b > 1, 1 - b < r <= b for b < 1
    for b_value in rng.uniform(1.2, 1.8, 20).tolist():
        rows += [(b_value, x) for x in np.linspace(b_value, 0.98 * b_value / (b_value - 1.0), 50).tolist()]
    for b_value in rng.uniform(0.6, 0.95, 20).tolist():
        rows += [(b_value, x) for x in np.linspace(1.0 - b_value + 0.01, b_value, 50).tolist()]
    solved, _ = _last_cycle_conductances(np.array(rows), 2.0)
    exact = sp.lambdify((b, r), RHO2_FORM, modules="math")
    kappa = sp.lambdify((b, r), (sp.Abs(b * sp.diff(RHO2_FORM, b)) + sp.Abs(r * sp.diff(RHO2_FORM, r)))
                        / sp.Abs(RHO2_FORM), modules="math")
    _assert_within_conditioned_ulps(solved.tolist(), exact, kappa, rows)
