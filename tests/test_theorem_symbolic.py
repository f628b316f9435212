"""The paper's 3-cycle theorem as symbolic identities, and the evaluator against them.

With conductances a, b, c, sigma1 = a + b + c, sigma2 = ab + bc + ca and
D = sqrt(sigma1^2 - 3 sigma2) = sqrt(((a-b)^2 + (b-c)^2 + (c-a)^2) / 2), the
Laplacian's positive eigenvalues are sigma1 -+ D and rho = 2 sigma1 / sigma2.
Then 6 - lambda_1 rho = 6D / (sigma1 + D) and lambda_2 rho - 6 = 2 sigma1 D /
sigma2 + 2 D^2 / sigma2, both non-negative and zero exactly when D = 0, that is
at equal weights: lambda_1 rho <= 6 <= lambda_2 rho.
"""

import math

import numpy as np
import sympy as sp

from ohmlab.families import cycle_spectra

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
