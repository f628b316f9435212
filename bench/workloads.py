"""The benchmark's workloads: inputs made from the seed, timed operations, checks.

A workload builds its inputs once (set-up), then ``ops()`` gives the
operations of one round, each a call without arguments. The runner repeats
whole rounds, so every round attempts the same operations on the same inputs.
``snapshot`` turns one round's outputs into plain data right after the round,
outside the timed part, and ``check`` compares a snapshot with the references
in ``oracles``, returning the errors found and the number of operations that
failed. ``oracles`` is imported only inside ``check``, after the timed part,
so its imports count in neither ``setup_s`` nor ``peak_rss_mib``.

ohmlab is driven through ``ohmlab.cli.main`` where a subcommand exists and
through the package API otherwise. Every call looks the function up on its
module at call time, so the traced mode sees it.
"""

from __future__ import annotations

import contextlib
import io
import math
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import ohmlab
import ohmlab.cli


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    out_path: Path | None


def _cli(argv: list[str], out_path: Path | None = None) -> CliResult:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = ohmlab.cli.main(argv)
    return CliResult(code, stdout.getvalue(), stderr.getvalue(), out_path)


def snapshot(outputs: list) -> tuple:
    """One round's outputs as plain data; a CLI result becomes (code, stdout, stderr, CSV text)."""
    return tuple(
        (out.code, out.stdout, out.stderr, out.out_path.read_text(encoding="utf-8") if out.out_path else None)
        if isinstance(out, CliResult) else out
        for out in outputs)


def _csv_rows(text: str) -> tuple[list[str], list[list[float]], list[str]]:
    """(header, numeric rows, comment lines) of a CSV written by the CLI."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    comments = [line for line in lines[1:] if line.startswith("#")]
    return header, rows, comments


# --------------------------------------------------------------------------- search

#: (n, restarts, search seed) of each ``ohmlab search`` call: n = 3..9 at the
#: CLI's default seed 0, plus one search known to fail. These inputs do not
#: depend on the benchmark's seed. Now and then a restart runs off to
#: conductance ratios of 1e7-1e26, where the search's float64 eigensolve loses
#: lambda_1 (by up to 25 %), so a seeded search would fail the 1e-9 check on
#: some seeds only. A fixed search fails the same way in every run and counts
#: as a failed operation; the last one does so today (restart 2, ratio 1.8e26).
SEARCHES = tuple((n, 10, 0) for n in range(3, 10)) + ((6, 10, 2009833639),)
#: lambda_max / lambda_1 beyond which a float64 eigensolve cannot promise
#: lambda_1 to 1e-9; disagreements at such points are that known fault.
ILL_CONDITIONED = 1e7
#: Factors by which reported conductances are rescaled; the products must not move.
RESCALE_FACTORS = (1e-3, 37.5)


class Search:
    """``ohmlab search n --restarts r --seed s --out CSV`` for each of ``SEARCHES``."""

    def __init__(self, seed: int, workdir: Path):
        self.runs = [(n, restarts, search_seed, workdir / f"search-{k}.csv")
                     for k, (n, restarts, search_seed) in enumerate(SEARCHES)]
        self.restarts_per_round = sum(restarts for _, restarts, _ in SEARCHES)

    def ops(self) -> list[Callable[[], object]]:
        return [partial(_cli, ["search", str(n), "--restarts", str(restarts), "--seed", str(search_seed),
                               "--out", str(path)], path)
                for n, restarts, search_seed, path in self.runs]

    def check(self, snapshot: tuple) -> tuple[list[str], int]:
        """A search whose only disagreements sit at ill-conditioned points counts as failed."""
        import oracles

        errors: list[str] = []
        failed = 0
        for (n, restarts, search_seed, _), (code, stdout, stderr, csv_text) in zip(self.runs, snapshot):
            label = f"search n={n} seed={search_seed}"
            try:
                search_errors, faults = _check_search(oracles, n, restarts, code, stdout, csv_text)
            except (ValueError, IndexError, TypeError) as exc:
                errors.append(f"{label}: unreadable output ({exc!r}); stderr {stderr!r}")
                continue
            errors += [f"{label}: {e}" for e in search_errors]
            failed += bool(faults)
        return errors, failed


def _check_search(oracles, n: int, restarts: int, code: int, stdout: str,
                  csv_text: str | None) -> tuple[list[str], list[str]]:
    """(errors, faults): faults are disagreements at points where lambda_max/lambda_1 > ILL_CONDITIONED."""
    errors: list[str] = []
    faults: list[str] = []
    lines = stdout.splitlines()
    fields = {line.split()[0]: line.split() for line in lines if line}
    best_max = float(fields["best_max_product"][1])
    best_max_c = [float(x) for x in fields["best_max_product"][3:]]
    best_min = float(fields["best_min_product"][1])
    best_min_c = [float(x) for x in fields["best_min_product"][3:]]
    flagged = lines[-1] == "COUNTEREXAMPLE FOUND"
    if lines[-1] not in ("COUNTEREXAMPLE FOUND", "no counterexample found"):
        errors.append(f"unexpected last line {lines[-1]!r}")
    if code != (10 if flagged else 0):
        errors.append(f"exit code {code} with flagged={flagged}")

    header, rows, _ = _csv_rows(csv_text)
    if [int(r[0]) for r in rows] != list(range(restarts)):
        errors.append(f"expected {restarts} restart rows, got {len(rows)}")
    if len(header) != 3 + 2 * n:
        errors.append(f"header has {len(header)} columns, expected {3 + 2 * n}")

    def products_agree(conductances, low=None, high=None, what="", factors=(1.0,)):
        """Oracle products at ``conductances``, compared with the reported ones at each scale."""
        unscaled = oracles.cycle_products(conductances)
        found = faults if unscaled[1] / unscaled[0] > ILL_CONDITIONED else errors
        for factor in factors:
            ref_low, ref_high = oracles.cycle_products([c * factor for c in conductances])
            if low is not None and not oracles.close(low, ref_low, 1e-9):
                found.append(f"{what}: lambda1*rho {low!r} vs oracle {ref_low!r} (scale {factor})")
            if high is not None and not oracles.close(high, ref_high, 1e-9):
                found.append(f"{what}: lambdamax*rho {high!r} vs oracle {ref_high!r} (scale {factor})")
        return unscaled

    for row in rows:
        k = int(row[0])
        max_c, min_c = row[3:3 + n], row[3 + n:3 + 2 * n]
        at_max = products_agree(max_c, low=row[1], what=f"restart {k} max")
        at_min = products_agree(min_c, high=row[2], what=f"restart {k} min")
        if n == 3:
            # the paper's theorem: lambda_1 rho <= 6 <= lambda_2 rho on every 3-cycle
            for value in (row[1], at_min[0]):
                if not value <= 6.0 * (1.0 + 1e-9):
                    errors.append(f"restart {k}: lambda1*rho {value!r} exceeds 6")
            for value in (row[2], at_max[1]):
                if not value >= 6.0 * (1.0 - 1e-9):
                    errors.append(f"restart {k}: lambda2*rho {value!r} below 6")
    if rows:
        if not oracles.close(best_max, max(r[1] for r in rows), 1e-12):
            errors.append(f"best_max_product {best_max!r} is not the best restart")
        if not oracles.close(best_min, min(r[2] for r in rows), 1e-12):
            errors.append(f"best_min_product {best_min!r} is not the best restart")
    rescaled = (1.0,) + RESCALE_FACTORS
    ref_max = products_agree(best_max_c, low=best_max, what="reported best max", factors=rescaled)
    ref_min = products_agree(best_min_c, high=best_min, what="reported best min", factors=rescaled)
    if n == 3 and not abs(best_max - 6.0) <= 1e-6:
        errors.append(f"best lambda1*rho {best_max!r} is not within 1e-6 of 6")

    base_low, base_high = oracles.unit_cycle_products(n)
    margin = max(ref_max[0] / base_low - 1.0, 1.0 - ref_min[1] / base_high)
    found = faults if ref_max[1] / ref_max[0] > ILL_CONDITIONED else errors
    if flagged and not margin > 1e-7:
        found.append(f"flagged counterexample not reproduced: oracle margin {margin!r}")
    if not flagged and margin > 1e-7 + 1e-9:
        errors.append(f"oracle margin {margin!r} beats the baseline but nothing was flagged")
    return errors, faults


# --------------------------------------------------------------------------- figures

#: family -> (range of lo, range of hi) for its parameter grid; each lies inside the
#: family's feasible interval, near its ends, where conductance ratios reach ~1e2-1e4.
FIGURE_RANGES = {
    "fig1": ((0.505, 0.55), (1.95, 1.995)),
    "fig2": ((0.01, 0.05), (2.9, 2.99)),
    "fig3": ((0.26, 0.3), (8.0, 12.0)),
    "fig4": ((0.1, 0.2), (5.0, 10.0)),
    "fig5": ((0.2, 0.3), (5.0, 10.0)),
}
FIGURE_STEPS = 600
FIGURE_TARGET_RHO = {"fig1": 2.0, "fig2": 2.0, "fig3": 2.0, "fig4": 3.0, "fig5": 3.0}
MONOTONICITY_CHECKS = ("lemma43a", "lemma43b", "lemma44a", "lemma44b")
MONOTONICITY_POINTS = 400
VERIFY_CYCLES = 100


def _monotonicity_grid(rng: np.random.Generator, check: str) -> tuple[float, list[float]]:
    """b and an r grid inside the lemma's regime where a positive third conductance exists."""
    if check in ("lemma43a", "lemma44a"):
        b = float(rng.uniform(1.2, 1.8))
        hi = 0.98 * b / (b - 1.0)  # (b, r, z) has z > 0 for b <= r < b/(b-1)
        return b, [float(r) for r in np.linspace(b, hi, MONOTONICITY_POINTS)]
    b = float(rng.uniform(0.6, 0.95))
    return b, [float(r) for r in np.linspace(1.0 - b + 0.01, b, MONOTONICITY_POINTS)]


class Figures:
    """``ohmlab figure`` for fig1-fig5, the lemma 4.3/4.4 scans and ``ohmlab verify``."""

    restarts_per_round = 0

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.figures = []
        for family, ((lo_a, lo_b), (hi_a, hi_b)) in FIGURE_RANGES.items():
            lo, hi = float(rng.uniform(lo_a, lo_b)), float(rng.uniform(hi_a, hi_b))
            self.figures.append((family, lo, hi, workdir / f"{family}.csv"))
        self.scans = [(check, *_monotonicity_grid(rng, check)) for check in MONOTONICITY_CHECKS]
        self.triangles = [tuple(10.0 ** rng.uniform(-2.0, 2.0, 3)) for _ in range(VERIFY_CYCLES)]

    def ops(self) -> list[Callable[[], object]]:
        ops = [partial(_cli, ["figure", family, repr(lo), repr(hi), str(FIGURE_STEPS), "--out", str(path)], path)
               for family, lo, hi, path in self.figures]
        ops += [partial(_monotonicity, check, b, grid) for check, b, grid in self.scans]
        ops += [partial(_cli, ["verify"] + [repr(float(c)) for c in triangle]) for triangle in self.triangles]
        return ops

    def check(self, snapshot: tuple) -> tuple[list[str], int]:
        import oracles

        errors: list[str] = []
        k = len(self.figures)
        for (family, lo, hi, _), (code, stdout, stderr, csv_text) in zip(self.figures, snapshot[:k]):
            label = f"figure {family} {lo!r} {hi!r}"
            try:
                errors += [f"{label}: {e}" for e in _check_figure(oracles, family, code, stdout, csv_text)]
            except (ValueError, IndexError, TypeError) as exc:
                errors.append(f"{label}: unreadable output ({exc!r}); stderr {stderr!r}")
        for (check, b, _), (ok, worst) in zip(self.scans, snapshot[k:k + len(self.scans)]):
            if ok is not True:
                errors.append(f"monotonicity {check} b={b!r}: not ok (worst margin {worst!r})")
        for triangle, (code, stdout, stderr, _) in zip(self.triangles, snapshot[k + len(self.scans):]):
            errors += [f"verify {triangle}: {e}" for e in _check_verify(oracles, triangle, code, stdout)]
        return errors, 0


def _monotonicity(check: str, b: float, grid: list[float]) -> tuple[bool, float]:
    result = ohmlab.monotonicity_check(check, b, grid)
    return result.ok, result.worst_margin


def _check_bound(products: tuple[float, float], conductances) -> list[str]:
    """lambda_1 rho <= 6 <= lambda_2 rho, with equality only at equal weights."""
    low, high = products
    errors = []
    if not (low <= 6.0 * (1.0 + 1e-9) and high >= 6.0 * (1.0 - 1e-9)):
        errors.append(f"bound violated: lambda1*rho {low!r}, lambda2*rho {high!r}")
    near_equality = abs(low - 6.0) <= 6e-9 or abs(high - 6.0) <= 6e-9
    if near_equality and not max(conductances) / min(conductances) < 1.0 + 1e-6:
        errors.append(f"equality at unequal weights {tuple(conductances)}")
    return errors


def _check_figure(oracles, family: str, code: int, stdout: str, csv_text: str) -> list[str]:
    errors = []
    target = FIGURE_TARGET_RHO[family]
    n = 3 if target == 2.0 else 4
    header, rows, comments = _csv_rows(csv_text)
    skipped = int(comments[0].split()[2])
    if code != 0 or stdout != f"wrote {len(rows)} rows to {stdout.split()[-1]}\n":
        errors.append(f"exit code {code}, stdout {stdout!r}")
    if len(rows) + skipped != FIGURE_STEPS or not rows:
        errors.append(f"{len(rows)} rows + {skipped} skipped != {FIGURE_STEPS} grid points")
    params = [row[0] for row in rows]
    if params != sorted(params):
        errors.append("rows are not ordered by parameter")
    worst_reference_err = 0.0
    for row in rows:
        param, conducts, rho = row[0], row[1:1 + n], row[1 + n]
        lams = row[2 + n:2 + n + (n - 1)]
        low_rho, max_rho = row[1 + 2 * n], row[2 + 2 * n]
        where = f"param {param!r}"
        if n == 3:
            ref_rho, *ref_lams = oracles.three_cycle_spectrum(*conducts)
        else:
            ref_rho = oracles.cycle_rho(conducts)
            ref_lams = [float(x) for x in oracles.eigenvalues(4, oracles.cycle_edges(conducts))[1:]]
        if not (oracles.close(rho, target, 1e-10) and oracles.close(rho, ref_rho, 1e-10)):
            errors.append(f"{where}: rho {rho!r}, target {target!r}, recomputed {ref_rho!r}")
        scale = max(ref_lams)
        if any(not abs(a - b) <= 1e-9 * scale for a, b in zip(lams, ref_lams)):
            errors.append(f"{where}: eigenvalues {lams} vs oracle {ref_lams}")
        if not (oracles.close(low_rho, ref_lams[0] * ref_rho, 1e-9)
                and oracles.close(max_rho, ref_lams[-1] * ref_rho, 1e-9)):
            errors.append(f"{where}: products ({low_rho!r}, {max_rho!r}) vs oracle")
        if family == "fig1":
            closed = oracles.two_equal_eigenvalues(param)
            if any(not oracles.close(a, b, 1e-9) for a, b in zip(lams, closed)):
                errors.append(f"{where}: eigenvalues {lams} vs 3b/(2b-1), 3b = {closed}")
        if n == 3:
            errors += [f"{where}: {e}" for e in _check_bound((low_rho, max_rho), conducts)]
        if header[-1] == "reference_rho_err":
            reference_c, reference_err = row[-2], row[-1]
            if math.isfinite(reference_c) and reference_c > 0.0:
                swapped = list(conducts)
                swapped[0] = reference_c  # fig2 and fig4 solve edge 0
                ref_err = (oracles.three_cycle_spectrum(*swapped)[0] if n == 3
                           else oracles.cycle_rho(swapped)) - target
                if not abs(reference_err - ref_err) <= 1e-9 * max(1.0, abs(ref_err) + target):
                    errors.append(f"{where}: reference_rho_err {reference_err!r} vs oracle {ref_err!r}")
                worst_reference_err = max(worst_reference_err, abs(ref_err))
    if header[-1] == "reference_rho_err":
        reported = float(comments[1].rsplit("=", 1)[1])
        if not abs(reported - worst_reference_err) <= 1e-9 * max(1.0, worst_reference_err):
            errors.append(f"max reference error {reported!r} vs oracle {worst_reference_err!r}")
    return errors


def _check_verify(oracles, triangle, code: int, stdout: str) -> list[str]:
    fields = stdout.split()
    low = float(fields[0].split("=")[1])
    high = float(fields[1].split("=")[1])
    rho, lam1, lam2 = oracles.three_cycle_spectrum(*triangle)
    errors = []
    if code != 0 or fields[2] not in ("OK", "EQUALITY"):
        errors.append(f"exit code {code}, status {fields[2]!r}")
    if not (oracles.close(low, lam1 * rho, 1e-9) and oracles.close(high, lam2 * rho, 1e-9)):
        errors.append(f"products ({low!r}, {high!r}) vs oracle ({lam1 * rho!r}, {lam2 * rho!r})")
    return errors + _check_bound((low, high), triangle)


# --------------------------------------------------------------------------- graphs

GRAPH_CYCLES = (12, 40, 80)
GRAPH_RANDOM = (10, 30, 60)
#: Conductances are log-uniform over this many decades (ratio up to 1e4).
GRAPH_DECADES = 4.0
#: Up to this size effective_resistance runs on every edge and metric_check runs.
ALL_EDGES_MAX_N = 30
SAMPLED_PAIRS = 6
CLI_PAIRS = 2
#: 6-cycles with conductance ratio 1e12-1e16, the same in every run. The Schur
#: elimination in ``global_resistance`` loses them all (wrong to 4e-6..4e-3
#: relative, DisconnectedGraphError, or ZeroDivisionError); each counts as a
#: failed operation until that is mended.
EXTREME_CYCLES = (
    (1.0, 1.0, 1.0, 1.0, 1.0, 1e12),
    (1.0, 1e12, 1.0, 1e12, 1.0, 1e12),
    (1.0, 1e14, 1.0, 1.0, 1e14, 1.0),
    (1.0, 1e16, 1.0, 1e16, 1.0, 1e16),
    (1.0, 1.0, 1.0, 1.0, 1.0, 1e16),
)


def _random_connected_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A random spanning tree plus random extra edges, 2n edges in all."""
    order = rng.permutation(n)
    pairs = {tuple(sorted((int(order[k]), int(order[rng.integers(k)])))) for k in range(1, n)}
    while len(pairs) < 2 * n:
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


class GraphInput(NamedTuple):
    name: str
    n: int
    edges: list[tuple[int, int, float]]
    is_cycle: bool
    path: Path
    cli_pairs: list[tuple[int, int]]
    api_pairs: list[tuple[int, int]]


class Graphs:
    """Resistances and spectra of weighted cycles and random graphs read from files."""

    restarts_per_round = 0

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.inputs: list[GraphInput] = []
        shapes = [(n, True) for n in GRAPH_CYCLES] + [(n, False) for n in GRAPH_RANDOM]
        for n, is_cycle in shapes:
            pairs = [(k, (k + 1) % n) for k in range(n)] if is_cycle else _random_connected_edges(rng, n)
            weights = 10.0 ** rng.uniform(0.0, GRAPH_DECADES, len(pairs))
            edges = [(i, j, float(c)) for (i, j), c in zip(pairs, weights)]
            name = f"{'cycle' if is_cycle else 'random'}{n}"
            path = workdir / f"{name}.txt"
            path.write_text(f"n {n}\n" + "".join(f"{i} {j} {c!r}\n" for i, j, c in edges), encoding="utf-8")
            sampled = [tuple(int(x) for x in rng.choice(n, size=2, replace=False))
                       for _ in range(CLI_PAIRS + SAMPLED_PAIRS)]
            api_pairs = sampled[CLI_PAIRS:]
            if n <= ALL_EDGES_MAX_N:
                api_pairs = [(i, j) for i, j, _ in edges] + api_pairs
            self.inputs.append(GraphInput(name, n, edges, is_cycle, path, sampled[:CLI_PAIRS], api_pairs))

    def ops(self) -> list[Callable[[], object]]:
        ops = []
        for g in self.inputs:
            ops.append(partial(_cli, ["spectrum", str(g.path)]))
            ops.append(partial(_cli, ["rho", str(g.path)]))
            ops += [partial(_cli, ["resistance", str(g.path), str(i), str(j)]) for i, j in g.cli_pairs]
            ops.append(partial(_pair_resistances, g.path, g.api_pairs))
            if g.n <= ALL_EDGES_MAX_N:
                ops.append(partial(_metric_check, g.path))
        ops += [partial(_extreme_rho, c) for c in EXTREME_CYCLES]
        return ops

    def check(self, snapshot: tuple) -> tuple[list[str], int]:
        import oracles

        errors: list[str] = []
        outputs = iter(snapshot)
        for g in self.inputs:
            try:
                errors += [f"{g.name}: {e}" for e in _check_graph(oracles, g, outputs)]
            except (ValueError, IndexError, TypeError) as exc:
                errors.append(f"{g.name}: unreadable output ({exc!r})")
        failed = 0
        for conductances, value in zip(EXTREME_CYCLES, outputs):
            if not (isinstance(value, float) and oracles.close(value, oracles.cycle_rho(conductances), 1e-9)):
                failed += 1
        return errors, failed


def _pair_resistances(path: Path, pairs: list[tuple[int, int]]) -> tuple[float, ...]:
    g = ohmlab.load_graph(path)
    return tuple(ohmlab.effective_resistance(g, i, j).value for i, j in pairs)


def _metric_check(path: Path) -> bool:
    return ohmlab.metric_check(ohmlab.load_graph(path))


def _extreme_rho(conductances) -> float | str:
    try:
        return ohmlab.global_resistance(ohmlab.cycle(6, list(conductances)))
    except (ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_graph(oracles, g: GraphInput, outputs) -> list[str]:
    errors = []
    lams = oracles.eigenvalues(g.n, g.edges)
    distances = oracles.resistance_distances(g.n, g.edges)
    total_c = sum(c for _, _, c in g.edges)

    code, stdout, _, _ = next(outputs)
    spectrum = [float(x) for x in stdout.split()]
    scale = float(lams[-1])
    if code != 0 or len(spectrum) != g.n:
        errors.append(f"spectrum: exit code {code}, {len(spectrum)} values")
    elif any(not abs(a - b) <= 1e-9 * scale for a, b in zip(spectrum, lams)):
        worst = max(abs(a - b) for a, b in zip(spectrum, lams)) / scale
        errors.append(f"spectrum: off the oracle by {worst:.2e} of lambda_max")
    if not oracles.close(sum(spectrum), 2.0 * total_c, 1e-9):
        errors.append(f"spectrum: eigenvalues sum to {sum(spectrum)!r}, not 2*sum(c) = {2.0 * total_c!r}")

    code, stdout, _, _ = next(outputs)
    rho = float(stdout)
    ref_rho = sum(distances[i][j] for i, j, _ in g.edges)
    if code != 0 or not oracles.close(rho, ref_rho, 1e-9):
        errors.append(f"rho: {rho!r} (exit {code}) vs networkx {ref_rho!r}")
    if g.is_cycle and not oracles.close(rho, oracles.cycle_rho([c for _, _, c in g.edges]), 1e-9):
        errors.append(f"rho: {rho!r} vs series-parallel closed form")

    for i, j in g.cli_pairs:
        code, stdout, _, _ = next(outputs)
        value_line, energy_line = stdout.splitlines()
        value, energy_min = float(value_line), float(energy_line.split()[1])
        if code != 0 or not oracles.close(value, distances[i][j], 1e-9) or not oracles.close(
                energy_min, 1.0 / distances[i][j], 1e-9):
            errors.append(f"resistance {i} {j}: {value!r}, energy {energy_min!r} vs {distances[i][j]!r}")

    values = next(outputs)
    for (i, j), value in zip(g.api_pairs, values):
        if not oracles.close(value, distances[i][j], 1e-9):
            errors.append(f"effective_resistance({i}, {j}) = {value!r} vs networkx {distances[i][j]!r}")
    if g.n <= ALL_EDGES_MAX_N:
        foster = sum(c * value for (_, _, c), value in zip(g.edges, values))
        if not oracles.close(foster, g.n - 1.0, 1e-9):
            errors.append(f"Foster: sum c_e R_e = {foster!r}, not n - 1")
        if next(outputs) is not True:
            errors.append("metric_check did not return True")
    return errors


WORKLOADS = {"search": Search, "figures": Figures, "graphs": Graphs}
