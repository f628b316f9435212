"""Generate the catalogued eigenvalue-family curves as CSV (and PNG if
matplotlib is available).

fig1-fig3 are 3-cycle families with global resistance pinned at 2; fig4 and
fig5 are 4-cycle families pinned at 3. The free conductance always comes from
the constraint solver. For fig2 and fig4 the catalogued closed-form
expression for that edge fails the constant-resistance check, so those CSVs
carry the solver curve and the catalogued one side by side.

Each CSV is written by the `ohmlab figure` command, run in-process, so this
script writes the same bytes as `ohmlab figure fig1 0.6 1.9 131 --out fig1.csv`
etc.; the plots are read back from those files.
"""

import csv
import os

import numpy as np

import ohmlab as ol
from ohmlab.cli import main as ohmlab_main

#: family -> (lo, hi, steps) of its parameter grid
GRIDS = {
    "fig1": (0.6, 1.9, 131),
    "fig2": (0.1, 2.9, 141),
    "fig3": (0.3, 3.0, 136),
    "fig4": (0.4, 2.5, 106),
    "fig5": (0.4, 2.5, 106),
}

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def read_columns(path):
    """The CSV's columns by header name, as float arrays; comment lines are skipped."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    return {name: np.array([float(row[k]) for row in rows[1:]]) for k, name in enumerate(rows[0])}


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    curves = {}
    for family, (lo, hi, steps) in GRIDS.items():
        path = os.path.join(OUT_DIR, f"{family}.csv")
        if ohmlab_main(["figure", family, repr(lo), repr(hi), str(steps), "--out", path]) != 0:
            raise SystemExit(f"ohmlab figure {family} failed")
        columns = read_columns(path)
        n = ol.FIGURE_FAMILIES[family].n
        curves[family] = (columns["param"], np.column_stack([columns[f"lambda_{k}"] for k in range(1, n)]))
        if family in ol.DISPUTED_REFERENCES:
            # the solved edge is c_0_1 in every disputed family
            k = len(columns["param"]) // 3
            print(f"   note: catalogued formula gives {columns['reference_c'][k]:.6f} at param "
                  f"{columns['param'][k]:.4f} where the solver needs "
                  f"{columns['c_0_1'][k]:.6f} to keep rho fixed")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping plots")
        return

    for family, (params, eigen) in curves.items():
        fig, ax = plt.subplots(figsize=(6, 4))
        for k in range(eigen.shape[1]):
            ax.plot(params, eigen[:, k], label=f"lambda_{k + 1}")
        ax.set_xlabel("parameter")
        ax.set_ylabel("eigenvalue")
        ax.set_title(f"{family}: positive Laplacian eigenvalues at fixed global resistance")
        ax.legend()
        fig.tight_layout()
        path = os.path.join(OUT_DIR, f"{family}.png")
        fig.savefig(path, dpi=120)
        plt.close(fig)
        print(f"plotted {path}")


if __name__ == "__main__":
    main()
