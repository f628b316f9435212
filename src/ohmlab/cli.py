"""Command-line frontend: resistance, spectra, bound checks, figure data, search.

Exit codes: 0 success, 2 usage or parse error, 3 invalid or disconnected
graph, 4 numerical failure, 10 counterexample found (which for ``verify``
means a violated inequality).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .cycles import cycle_rhos
from .extremal import search_counterexample, unit_cycle_baseline, verify_theorem
from .families import (DISPUTED_REFERENCES, FIGURE_FAMILIES, REFERENCE_FORMULAS, InfeasibleFamilyError,
                       feasible_grid)
from .graphs import GraphError, GraphFormatError, laplacian, load_graph
from .linalg import eigen_sym
from .resistance import effective_resistance, global_resistance

#: The CLI names 3-cycle edges by vertex pair, (c01, c02, c12), for ``verify``
#: arguments and figure CSV columns; entry k is the cycle edge (c01, c12, c02)
#: holding pair k. The permutation is its own inverse.
_THREE_CYCLE_PAIR_ORDER = (0, 2, 1)

#: ``RestartBest`` fields written per restart by ``search --trace``.
_TRACE_FIELDS = ("restart", "max_product", "max_iterations", "max_evaluations", "max_converged",
                 "max_nonfinite")


def _fmt(x: float) -> str:
    return format(x, ".15g")


def _cmd_resistance(args) -> int:
    g = load_graph(args.graph)
    report = effective_resistance(g, args.i, args.j)
    print(_fmt(report.value))
    print(f"energy_min {_fmt(report.energy_min)}")
    return 0


def _cmd_rho(args) -> int:
    g = load_graph(args.graph)
    print(_fmt(global_resistance(g)))
    return 0


def _cmd_spectrum(args) -> int:
    g = load_graph(args.graph)
    spectrum = eigen_sym(laplacian(g))
    for value in spectrum.eigenvalues:
        print(_fmt(value))
    return 0


def _cmd_verify(args) -> int:
    pairs = (args.c01, args.c02, args.c12)
    if not all(c > 0.0 for c in pairs):
        print("verify: conductances must all be positive", file=sys.stderr)
        return 2
    tol = args.tol if args.tol is not None else 1e-9
    report = verify_theorem([pairs[k] for k in _THREE_CYCLE_PAIR_ORDER], tol=tol)
    if report.equality:
        status = "EQUALITY"
    elif report.lower_ok and report.upper_ok:
        status = "OK"
    else:
        status = "VIOLATION"
    print(f"lambda1_rho={_fmt(report.lambda1_rho)} lambda2_rho={_fmt(report.lambdamax_rho)} {status}")
    return 0 if (report.lower_ok and report.upper_ok) else 10


def _reference_columns(family: str, grid) -> np.ndarray:
    """(m, 2) reference conductance of the solved edge at each grid parameter and its
    rho error, by one :func:`~ohmlab.cycles.cycle_rhos` call; the error is NaN where
    the reference is not positive and finite."""
    spec = FIGURE_FAMILIES[family]
    # overflow gives inf or NaN silently, as on Python floats; no member of a
    # disputed family sits on a zero denominator
    with np.errstate(all="ignore"):
        references = np.asarray(REFERENCE_FORMULAS[family](grid.params), dtype=float)
    cycles = grid.conductances.copy()
    cycles[:, spec.solved_edge] = references
    usable = (references > 0.0) & (references < np.inf)
    errors = np.full(len(references), np.nan)
    errors[usable] = cycle_rhos(cycles[usable]) - spec.target_rho
    return np.column_stack((references, errors))


def _cmd_figure(args) -> int:
    # hi - lo is finite only when both ends are, and linspace needs it finite
    if args.steps < 1 or not args.lo < args.hi or not np.isfinite(args.hi - args.lo):
        print("figure: need finite lo < hi and steps >= 1", file=sys.stderr)
        return 2
    spec = FIGURE_FAMILIES[args.family]
    grid = feasible_grid(args.family, np.linspace(args.lo, args.hi, args.steps))
    with_reference = args.family in DISPUTED_REFERENCES
    if spec.n == 3:
        columns = _THREE_CYCLE_PAIR_ORDER
        edge_names = ["c_0_1", "c_0_2", "c_1_2"]
    else:
        columns = range(spec.n)
        edge_names = [f"c_{k}_{k + 1}" for k in range(spec.n - 1)] + [f"c_0_{spec.n - 1}"]

    headers = ["param"] + edge_names + ["rho"]
    headers += [f"lambda_{k}" for k in range(1, spec.n)]
    headers += ["lambda1_rho", "lambdamax_rho"]
    blocks = [grid.params, grid.conductances[:, columns], grid.rho, grid.eigenvalues[:, 1:],
              grid.eigenvalues[:, 1] * grid.rho, grid.eigenvalues[:, -1] * grid.rho]
    if with_reference:
        headers += ["reference_c", "reference_rho_err"]
        references = _reference_columns(args.family, grid)
        blocks.append(references)
    table = np.column_stack(blocks)

    # tolist() gives Python floats, whose repr is the shortest round-tripping text
    lines = [",".join(headers)]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    lines.append(f"# skipped {args.steps - len(table)} infeasible grid points of {args.steps}")
    if with_reference:
        errors = references[:, 1]
        worst = float(np.abs(errors[np.isfinite(errors)]).max(initial=0.0))
        lines.append(f"# reference formula: max |rho - {_fmt(spec.target_rho)}| = {_fmt(worst)}")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


def _cmd_search(args) -> int:
    report = search_counterexample(args.n, restarts=args.restarts,
                                   iters_per_restart=args.iters, seed=args.seed)
    base = unit_cycle_baseline(args.n)
    print(f"n {report.n}  restarts {report.trials}  iters {args.iters}  seed {report.seed}")
    print(f"unit cycle: lambda1 {_fmt(base.lambda1)}  lambda_max {_fmt(base.lambda_max)}  rho {_fmt(base.rho)}")
    print(f"baseline_low {_fmt(report.baseline_low)}  baseline_high {_fmt(report.baseline_high)}")
    print(f"best_max_product {_fmt(report.best_max_product)}  at "
          + " ".join(_fmt(c) for c in report.best_max_conductances))
    print(f"best_min_product {_fmt(report.best_min_product)}  at "
          + " ".join(_fmt(c) for c in report.best_min_conductances))
    print(f"margin {_fmt(report.margin)}")
    if args.out:
        n = report.n
        headers = (["restart", "max_product", "min_product"]
                   + [f"max_c_{k}" for k in range(n)] + [f"min_c_{k}" for k in range(n)])
        lines = [",".join(headers)]
        # the lambda_max rho columns hold the proved minimum on every row
        min_cells = [repr(c) for c in report.best_min_conductances]
        for rec in report.per_restart:
            cells = [str(rec.restart), repr(rec.max_product), repr(report.best_min_product)]
            cells += [repr(c) for c in rec.max_conductances]
            lines.append(",".join(cells + min_cells))
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for rec in report.per_restart:
                handle.write(json.dumps({name: getattr(rec, name) for name in _TRACE_FIELDS}) + "\n")
    if report.counterexample:
        print("COUNTEREXAMPLE FOUND")
        return 10
    print("no counterexample found")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ohmlab`` argument parser, built on the first call and shared after.

    The parser depends on no input, and ``parse_args`` keeps no state between
    calls: each call returns a fresh namespace with every default in place.
    So one process builds it once, however many times :func:`main` runs.
    Every caller gets the same parser and must not change it.
    """
    parser = argparse.ArgumentParser(
        prog="ohmlab",
        description="Effective-resistance metrics, Laplacian spectra, and extremal "
                    "eigenvalue experiments on weighted cycles.",
    )
    parser.add_argument("--tol", type=float, default=None,
                        help="relative bound tolerance for verify (default 1e-9); "
                             "other commands ignore it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resistance", help="resistance distance between two vertices of a graph file")
    p.add_argument("graph", help="edge-list graph file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(handler=_cmd_resistance)

    p = sub.add_parser("rho", help="global resistance (sum over adjacent pairs) of a graph file")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_rho)

    p = sub.add_parser("spectrum", help="ascending Laplacian eigenvalues of a graph file")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("verify", help="check lambda1*rho <= 6 <= lambda2*rho for a 3-cycle",
                       description="Check lambda1*rho <= 6 <= lambda2*rho for the 3-cycle with "
                                   "conductances c01, c02, c12 on the vertex pairs (0,1), (0,2), "
                                   "(1,2); they are passed on in cycle edge order (c01, c12, c02).")
    p.add_argument("c01", type=float, help="conductance between vertices 0 and 1")
    p.add_argument("c02", type=float, help="conductance between vertices 0 and 2")
    p.add_argument("c12", type=float, help="conductance between vertices 1 and 2")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("figure", help="emit CSV data for a catalogued conductance family")
    p.add_argument("family", choices=sorted(FIGURE_FAMILIES))
    p.add_argument("lo", type=float)
    p.add_argument("hi", type=float)
    p.add_argument("steps", type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("search", help="search an n-cycle for weights beating equal weights on lambda1*rho",
                       description="Search n-cycle conductances for a lambda1*rho above the unit cycle's. "
                                   "Equal weights provably minimize lambda_max*rho on every n-cycle, so "
                                   "that side is reported as the unit-cycle value, not searched.")
    p.add_argument("n", type=int)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0,
                   help="restart k starts from numpy's default_rng([seed, k]) PCG64 stream, "
                        "reproduced without numpy.random")
    p.add_argument("--out", default=None, help="optional CSV of per-restart bests")
    p.add_argument("--trace", default=None,
                   help="optional JSON Lines file: per restart, the best lambda1*rho and its "
                        "iterations, evaluations, converged flag and non-finite count")
    p.set_defaults(handler=_cmd_search)

    return parser


def main(argv=None) -> int:
    """Run one ``ohmlab`` command and return its exit code.

    The parser comes from :func:`build_parser`, built once per process on the
    first call, so repeated in-process calls parse without rebuilding it.
    A usage error raises ``SystemExit(2)`` from argparse.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except GraphFormatError as exc:
        print(f"ohmlab: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"ohmlab: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"ohmlab: {exc}", file=sys.stderr)
        return 4
    except (InfeasibleFamilyError, ValueError) as exc:
        print(f"ohmlab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ohmlab: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
