"""Walk through the resistance toolkit on small graphs.

Builds a few weighted graphs, computes resistance distances through two
routes (one Cholesky solve for all pairs vs a grounded LU solve per pair),
checks the metric axioms numerically, and shows the classical edge-sum
identity and the conductance scaling law.
"""

import numpy as np

import ohmlab as ol


def main():
    print("== unit 3-cycle ==")
    tri = ol.cycle(3, [1.0, 1.0, 1.0])
    print("Laplacian:")
    print(ol.laplacian(tri).entries)
    report = ol.effective_resistance(tri, 0, 1)
    print(f"d_r(0,1) = {report.value:.15g}   (minimizing energy {report.energy_min:.15g})")
    print(f"grounded-solve oracle agrees: {ol.effective_resistance_oracle(tri, 0, 1):.15g}")
    print(f"global resistance rho = {ol.global_resistance(tri):.15g}")
    print(f"closed form for 3-cycles: {ol.three_cycle_rho(1.0, 1.0, 1.0):.15g}")
    print(f"is a metric on the vertices: {ol.metric_check(tri)}")

    print()
    print("== series / parallel sanity ==")
    path = ol.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    print(f"path 0-1-2, d_r(0,2) = {ol.effective_resistance(path, 0, 2).value:.15g}  (two resistors in series)")
    square = ol.cycle(4, [1.0] * 4)
    print(f"unit 4-cycle, d_r(0,2) = {ol.effective_resistance(square, 0, 2).value:.15g}  ((1+1) parallel (1+1))")
    print(f"unit 4-cycle, rho = {ol.global_resistance(square):.15g}")

    print()
    print("== edge-sum identity on a random graph ==")
    rng = np.random.default_rng(1)
    n = 8
    edges = [(i, j, float(np.exp(rng.uniform(-2, 2))))
             for i in range(n - 1) for j in range(i + 1, n) if rng.random() < 0.5]
    g = ol.build_graph(n, edges)
    if not ol.is_connected(g):
        g = ol.build_graph(n, edges + [(0, k, 1.0) for k in range(1, n)
                                       if not any(e[:2] == (0, k) for e in edges)])
    total = sum(c * ol.effective_resistance(g, i, j).value for i, j, c in g.edges)
    print(f"sum of c_e * d_r(e) over edges = {total:.12f}   (always n - 1 = {n - 1})")

    print()
    print("== scaling law ==")
    for alpha in (0.5, 2.0, 10.0):
        rho = ol.global_resistance(ol.scale(tri, alpha))
        print(f"alpha = {alpha:4}: rho = {rho:.15g}  (rho * alpha = {rho * alpha:.15g})")

    print()
    print("== file format ==")
    text = ol.dump_graph(tri)
    print(text.rstrip())
    print("round-trips:", ol.parse_graph(text) == tri)


if __name__ == "__main__":
    main()
