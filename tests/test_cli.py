"""Command-line interface: outputs, CSV files, the exit-code taxonomy, imports."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ohmlab
from ohmlab import (DISPUTED_REFERENCES, FIGURE_FAMILIES, cycle_rho_closed_form, reference_conductance,
                    scan_family)
from ohmlab.cli import build_parser, main

from conftest import series_parallel_resistances

UNIT_THREE = "n 3\n0 1 1\n0 2 1\n1 2 1\n"
UNIT_FOUR = "n 4\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n"
UNIT_SIX = "n 6\n" + "".join(f"{k} {(k + 1) % 6} 1\n" for k in range(6))
TWO_VERTEX = "n 2\n0 1 4\n"
DISCONNECTED = "n 4\n0 1 1\n2 3 1\n"
B32_FAMILY = "n 3\n0 1 0.375\n0 2 1.5\n1 2 1.5\n"


def cycle_file(conductances):
    """Edge-list text of the cycle whose edge k joins vertices k and k+1 (mod n)."""
    n = len(conductances)
    return f"n {n}\n" + "".join(f"{k} {(k + 1) % n} {c!r}\n" for k, c in enumerate(conductances))


#: Cycles at conductance ratios to 1e300, which the arc route resolves exactly.
EXTREME_CYCLES = ([1.0, 1e16, 1.0, 1e16, 1.0, 1e16], [1.0, 1e300, 1.0, 1e300],
                  [1e300, 1.0, 1e300, 1.0, 1.0, 1.0])
#: The first of them plus a unit chord: connected, but its grounded Cholesky factorization breaks down.
CHOLESKY_BREAKDOWN = cycle_file(EXTREME_CYCLES[0]) + "0 3 1.0\n"
#: The others plus a unit chord, whose computed resistance matrix holds a zero
#: (true value about 1e-300) between distinct vertices.
ZERO_RESISTANCE = cycle_file(EXTREME_CYCLES[1]) + "0 2 1.0\n"
ZERO_RESISTANCE_SIX = cycle_file(EXTREME_CYCLES[2]) + "0 3 1.0\n"
#: A cycle whose pairs three edges apart, and whose rho, lie past the float range.
PAST_FLOAT_RANGE = cycle_file([1e-308] * 10)
#: A cycle whose degrees, and so its Laplacian spectrum, lie past the float range; rho is 2e-308.
DEGREE_PAST_FLOAT_RANGE = cycle_file([1e308] * 3)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def parse_csv(path):
    headers = None
    rows = []
    comments = []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif headers is None:
                headers = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return headers, rows, comments


class TestResistanceCommand:
    def test_unit_three_cycle(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", UNIT_THREE)
        assert main(["resistance", path, "0", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "0.666666666666667"
        assert out[1] == "energy_min 1.5"

    def test_two_vertex(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", TWO_VERTEX)
        assert main(["resistance", path, "0", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0.25"

    def test_disconnected_exit_3(self, tmp_path):
        path = write(tmp_path, "g.txt", DISCONNECTED)
        assert main(["resistance", path, "0", "1"]) == 3

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", "vertices 3\n0 1 1\n")
        assert main(["resistance", path, "0", "1"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["resistance", str(tmp_path / "absent.txt"), "0", "1"]) == 2

    def test_degrees_past_the_float_range(self, tmp_path, capsys):
        # 2/3 of 1/1e308 is subnormal: two spacings of 2^-1074 cover the rounding there
        path = write(tmp_path, "g.txt", DEGREE_PAST_FLOAT_RANGE)
        assert main(["resistance", path, "0", "1"]) == 0
        value = float(capsys.readouterr().out.splitlines()[0])
        assert abs(value - 2.0 / 3.0 / 1e308) <= 2 * math.ulp(0.0)

    @pytest.mark.parametrize("conductances", EXTREME_CYCLES, ids=["ratio_1e16", "ratio_1e300", "ratio_1e300_six"])
    def test_extreme_cycles_exit_0(self, tmp_path, capsys, conductances):
        # the cycles of the Cholesky failures below, without their chords
        path = write(tmp_path, "g.txt", cycle_file(conductances))
        n = len(conductances)
        want = series_parallel_resistances(conductances)
        for i in range(n):
            for j in range(i + 1, n):
                assert main(["resistance", path, str(i), str(j)]) == 0
                value_line, energy_line = capsys.readouterr().out.splitlines()
                assert float(value_line) == pytest.approx(want[i][j], rel=1e-14)
                assert float(energy_line.split()[1]) == pytest.approx(1.0 / want[i][j], rel=1e-14)
        assert main(["rho", path]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(cycle_rho_closed_form(conductances), rel=1e-14)

    @pytest.mark.parametrize("text,command", [
        (CHOLESKY_BREAKDOWN, ["rho"]),
        (ZERO_RESISTANCE, ["rho"]),
        (ZERO_RESISTANCE, ["resistance", "1", "2"]),
        (ZERO_RESISTANCE_SIX, ["resistance", "2", "3"]),
        (PAST_FLOAT_RANGE, ["resistance", "0", "3"]),
        (PAST_FLOAT_RANGE, ["rho"]),
        (DEGREE_PAST_FLOAT_RANGE, ["spectrum"]),
    ], ids=["rho_cholesky_breakdown", "rho_zero_resistance", "zero_resistance", "zero_resistance_six",
            "past_float_range", "rho_past_float_range", "spectrum_degree_past_float_range"])
    def test_numerical_failure_exit_4(self, tmp_path, capsys, text, command):
        # connected graphs, so exit 4 (numerical failure), not 3 (disconnected),
        # and a zero resistance never reaches 1/value
        path = write(tmp_path, "g.txt", text)
        assert main(command[:1] + [path] + command[1:]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ohmlab: ")


class TestRhoCommand:
    @pytest.mark.parametrize("text,expected", [
        (UNIT_THREE, "2"),
        (UNIT_FOUR, "3"),
        (UNIT_SIX, "5"),
    ])
    def test_unit_cycles(self, tmp_path, capsys, text, expected):
        path = write(tmp_path, "g.txt", text)
        assert main(["rho", path]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_degrees_past_the_float_range(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", DEGREE_PAST_FLOAT_RANGE)
        assert main(["rho", path]) == 0
        assert capsys.readouterr().out == "2e-308\n"


class TestSpectrumCommand:
    def test_unit_three_cycle(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", UNIT_THREE)
        assert main(["spectrum", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert abs(float(lines[0])) < 1e-9
        assert lines[1] == "3" and lines[2] == "3"

    def test_unit_four_cycle(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", UNIT_FOUR)
        assert main(["spectrum", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [lines[1], lines[2], lines[3]] == ["2", "2", "4"]

    def test_two_equal_family_point(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", B32_FAMILY)
        assert main(["spectrum", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "2.25" and lines[2] == "4.5"

    def test_tol_flag_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", UNIT_THREE)
        assert main(["--tol", "1e-14", "spectrum", path]) == 0


class TestVerifyCommand:
    def test_equality_case(self, capsys):
        assert main(["verify", "1", "1", "1"]) == 0
        assert "EQUALITY" in capsys.readouterr().out

    def test_strict_case(self, capsys):
        assert main(["verify", "0.375", "1.5", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "lambda1_rho=4.5" in out
        assert "lambda2_rho=9" in out
        assert "OK" in out

    def test_negative_conductance_exit_2(self, capsys):
        assert main(["verify", "1", "1", "-1"]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", ["1e308", "1e300", "1e160", "1e-300"])
    def test_equal_extreme_conductances_are_equality(self, capsys, c):
        # the products are scale-free, and verify computes them on conductances
        # scaled by a power of two, so the Laplacian's diagonal cannot overflow
        # (1e308) and E neither underflows nor overflows
        assert main(["verify", c, c, c]) == 0
        assert capsys.readouterr().out == "lambda1_rho=6 lambda2_rho=6 EQUALITY\n"

    @pytest.mark.parametrize("args,code", [
        (["inf", "1", "1"], 3),  # not a graph
        (["nan", "1", "1"], 2),
        (["1", "1", "0"], 2),
    ])
    def test_invalid_conductances(self, capsys, args, code):
        assert main(["verify"] + args) == code
        assert "VIOLATION" not in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [["1e-310", "1", "1"], ["1e308", "1e308", "1"], ["1e-320", "1", "1"],
                                      ["5e-324", "1", "1"]])
    def test_subnormal_scaled_conductance_resolves(self, capsys, args):
        # scaled by the largest conductance's power of two, or unscaled where
        # that would round it (5e-324), the smallest is subnormal, and its
        # resistance, so the series sum S, overflows
        assert main(["verify"] + args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lambda1_rho, lambda2_rho, status = captured.out.split()
        assert float(lambda1_rho.removeprefix("lambda1_rho=")) == pytest.approx(4.0, rel=1e-9)
        assert float(lambda2_rho.removeprefix("lambda2_rho=")) == pytest.approx(12.0, rel=1e-9)
        assert status == "OK"

    @pytest.mark.filterwarnings("error")
    def test_extreme_ratio_products_exit_0(self, capsys):
        # the closed-form products at ratios where an eigensolve gave lambda_1 rho = 2
        # and refused (exit 4), and where it gave NaN
        assert main(["verify", "1e200", "1e-200", "1"]) == 0
        assert capsys.readouterr().out == "lambda1_rho=3 lambda2_rho=4e+200 OK\n"
        assert main(["verify", "1e308", "1e308", "5e-324"]) == 0
        assert capsys.readouterr().out == "lambda1_rho=4 lambda2_rho=12 OK\n"

    @pytest.mark.filterwarnings("error")
    def test_product_past_float_range_exit_4(self, capsys):
        # lambda_2 rho is about 1e600
        assert main(["verify", "1e300", "1e-300", "1e-300"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "exceeds the float range" in captured.err


#: sha256 of the ``figure`` CSV per (family, lo, hi, steps), recorded while the
#: CSV was still written row by row from ``CyclePoint``s (numpy 2.4 on x86-64).
#: The first grids skip infeasible points: fig2 crosses r = -1 and r = 0, and
#: fig4 starts at c = 0. The 600-point grids are the benchmark's.
FIGURE_CSV_SHA256 = {
    ("fig1", "0.4", "2.2", "37"): "1ec68d01cc0a3d3c6bf87111cafda3b9a89076396d027d73ef0d8ec8ff439870",
    ("fig2", "-1", "2.9", "40"): "e2aa961f61e72e2cdacb603569f789f3f8ce9d2a83cf6843ebcf1f9bb70178f5",
    ("fig2", "0.01", "3.5", "61"): "682f527a271f3e4d5878154e883c7b9a6a68ca1e3ed2a3c1eedd108283171b4d",
    ("fig3", "0.1", "12", "50"): "15be0a01471c04090fbf0b92abbf03dee2499ff99a6cdcfe478ac9886cf69992",
    ("fig4", "0", "5", "11"): "bc090394b3dcffc6f7a3d623c1f607990ec1f3ec5f09453c4c0d2c4732409e75",
    ("fig4", "-0.5", "10", "64"): "c201ac0bcaef8264fce37884c2b5a477c8f87558ae124bb7a0ec5648016395d9",
    ("fig5", "-0.3", "10", "55"): "1825f37f4c893501f73be9a9f2f54bd0db55002764426c0ebf5835b37568b913",
    ("fig1", "0.505", "1.995", "600"): "227402ee52100619ad818b91347116b16715a8017701cd263cc12f5d990e9d3e",
    ("fig2", "0.01", "2.99", "600"): "44dce4da9478d6f21add3bea907fa41194752898cafd93d0c3dc5e4cae408025",
    ("fig3", "0.26", "12.0", "600"): "aa0ae0cf8f1dc0385156025abff8c61af6cc67b0a25573c85fc94eb18ef85672",
    ("fig4", "0.1", "10.0", "600"): "6a51401552b34c5cdad022e70b0b38f7a7c0384a24295f615e7aa2cf734aa834",
    ("fig5", "0.2", "10.0", "600"): "76abdb5f6da97731a78072396752877b1e5f6c4c1e5341b14047a4607c9ebc0d",
}

#: sha256 of the stdout, ``--out`` CSV and ``--trace`` JSON Lines bytes of
#: ``search 5 --restarts 3 --iters 300 --seed 3``, recorded once the search
#: ran the maximizing lanes alone and reported the proved lambda_max rho
#: minimum (numpy 2.4 on x86-64).
SEARCH_SHA256 = {
    "stdout": "a913fb33f864a3bca05815fdb5ad8fec0b4a38948ae515b4693201eea1063711",
    "out": "93f087900de7224507eede8f1e4f4bf5bcf24f61da130d53a3a02f424168dc93",
    "trace": "e6aa4bd34ad0c59d958ba3a420ec9618839566ad5edb72539e347433b1a3324a",
}
#: sha256 of that ``--out`` CSV with its ``min_product`` and ``min_c_*``
#: columns removed, recorded while the search still ran minimizing lanes
#: beside the maximizing ones: the maximizing side did not move when they went.
SEARCH_MAX_COLUMNS_SHA256 = "92f922c7bb844f322f60d99cb8f50538dbb146397d3641204e9c27f20433deae"


def assert_csv_matches_recomputation(tmp_path, family, lo, hi, steps):
    """Each cell of the ``figure`` CSV is the repr of the value recomputed from
    :func:`scan_family` and, for disputed families, :func:`reference_conductance`."""
    out = str(tmp_path / f"{family}.csv")
    assert main(["figure", family, lo, hi, str(steps), "--out", out]) == 0
    with open(out) as handle:
        lines = handle.read().splitlines()
    spec = FIGURE_FAMILIES[family]
    disputed = family in DISPUTED_REFERENCES
    if spec.n == 3:
        edges = ["c_0_1", "c_0_2", "c_1_2"]
        lambdas = ["lambda_1", "lambda_2"]
    else:
        edges = ["c_0_1", "c_1_2", "c_2_3", "c_0_3"]
        lambdas = ["lambda_1", "lambda_2", "lambda_3"]
    assert lines[0].split(",") == (["param"] + edges + ["rho"] + lambdas + ["lambda1_rho", "lambdamax_rho"]
                                   + ["reference_c", "reference_rho_err"] * disputed)
    points = scan_family(family, np.linspace(float(lo), float(hi), steps))
    worst = 0.0
    for line, point in zip(lines[1:], points):
        c = point.conductances
        # 3-cycle columns name vertex pairs (c01, c02, c12); points hold edge order (c01, c12, c02)
        expected = [point.parameter, *((c[0], c[2], c[1]) if spec.n == 3 else c), point.rho,
                    *point.eigenvalues[1:], point.lambda1_rho, point.lambdamax_rho]
        if disputed:
            reference = reference_conductance(family, point.parameter)
            cycle = list(c)
            cycle[spec.solved_edge] = reference
            error = cycle_rho_closed_form(cycle) - spec.target_rho if 0.0 < reference < math.inf else math.nan
            expected += [reference, error]
            worst = max(worst, abs(error)) if math.isfinite(error) else worst
        assert line.split(",") == [repr(v) for v in expected]
    comments = [f"# skipped {steps - len(points)} infeasible grid points of {steps}"]
    if disputed:
        comments.append(f"# reference formula: max |rho - {spec.target_rho:.15g}| = {worst:.15g}")
    assert lines[1 + len(points):] == comments


class TestFigureCommand:
    def test_fig1_csv_matches_recomputation_bitwise(self, tmp_path, capsys):
        assert_csv_matches_recomputation(tmp_path, "fig1", "0.6", "1.9", 19)
        assert_csv_matches_recomputation(tmp_path, "fig1", "0.4", "2.2", 37)

    @pytest.mark.parametrize("family,lo,hi,steps", [
        ("fig2", "-1", "2.9", 40),
        ("fig3", "0.1", "12", 50),
        ("fig4", "0", "5", 11),
        # the reference formula overflows to NaN here
        ("fig4", "1e100", "1e200", 5),
        ("fig5", "-0.3", "10", 55),
    ])
    def test_csv_matches_recomputation_bitwise(self, tmp_path, capsys, family, lo, hi, steps):
        assert_csv_matches_recomputation(tmp_path, family, lo, hi, steps)

    @pytest.mark.parametrize("grid", list(FIGURE_CSV_SHA256))
    def test_csv_bytes_are_pinned(self, tmp_path, capsys, grid):
        out = tmp_path / "figure.csv"
        assert main(["figure", *grid, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_CSV_SHA256[grid]

    def test_fig1_peak_structure(self, tmp_path):
        out = str(tmp_path / "fig1.csv")
        assert main(["figure", "fig1", "0.6", "1.9", "131", "--out", out]) == 0
        headers, rows, _ = parse_csv(out)
        grid = np.array([r[0] for r in rows])
        lam1 = np.array([r[headers.index("lambda_1")] for r in rows])
        lam2 = np.array([r[headers.index("lambda_2")] for r in rows])
        k = int(np.argmin(np.abs(grid - 1.0)))
        assert int(np.argmax(lam1)) == k
        assert int(np.argmin(lam2)) == k

    def test_fig2_emits_reference_columns(self, tmp_path):
        out = str(tmp_path / "fig2.csv")
        assert main(["figure", "fig2", "0.5", "2.5", "21", "--out", out]) == 0
        headers, rows, comments = parse_csv(out)
        assert headers[-2:] == ["reference_c", "reference_rho_err"]
        errs = [abs(r[-1]) for r in rows]
        assert max(errs) > 1e-2  # the catalogued formula misses rho = 2
        rho_col = [r[headers.index("rho")] for r in rows]
        assert max(abs(v - 2.0) for v in rho_col) <= 1e-10 * 2.0
        assert any("reference formula" in c for c in comments)

    def test_fig4_emits_reference_columns(self, tmp_path):
        out = str(tmp_path / "fig4.csv")
        assert main(["figure", "fig4", "0.4", "2.5", "22", "--out", out]) == 0
        headers, rows, _ = parse_csv(out)
        assert headers[1:5] == ["c_0_1", "c_1_2", "c_2_3", "c_0_3"]
        assert headers[-2:] == ["reference_c", "reference_rho_err"]
        rho_col = [r[headers.index("rho")] for r in rows]
        assert max(abs(v - 3.0) for v in rho_col) <= 1e-10 * 3.0

    @pytest.mark.parametrize("family,lo,hi", [
        ("fig1", "0.6", "1.9"),
        ("fig2", "0.2", "2.8"),
        ("fig3", "0.3", "3.0"),
        ("fig4", "0.4", "2.5"),
        ("fig5", "0.4", "2.5"),
    ])
    def test_conductance_columns_hold_their_edges(self, tmp_path, family, lo, hi):
        # 3-cycle columns name vertex pairs (c_0_1, c_0_2, c_1_2), while the
        # families hold cycle edge order (c01, c12, c02)
        out = str(tmp_path / f"{family}.csv")
        assert main(["figure", family, lo, hi, "15", "--out", out]) == 0
        headers, rows, _ = parse_csv(out)
        assert len(rows) == 15
        for row in rows:
            cell = dict(zip(headers, row))
            param = cell["param"]
            if family == "fig1":
                assert cell["c_0_2"] == param and cell["c_1_2"] == param
                assert cell["c_0_1"] == pytest.approx(param * (2 - param) / (2 * param - 1), rel=1e-12)
            elif family == "fig2":
                assert cell["c_0_2"] == param and cell["c_1_2"] == 1.5
            elif family == "fig3":
                assert cell["c_0_1"] == 0.75 and cell["c_0_2"] == param
                assert cell["c_1_2"] == pytest.approx((param + 3) / (4 * param - 1), rel=1e-12)
            else:
                assert cell["c_1_2"] == 1.0 / param and cell["c_2_3"] == param
                assert cell["c_0_3"] == (1.0 if family == "fig4" else (param + 1.0) / 2.0)
            if family in ("fig1", "fig2", "fig3"):
                rho = cycle_rho_closed_form((cell["c_0_1"], cell["c_1_2"], cell["c_0_2"]))
            else:
                rho = cycle_rho_closed_form([cell[k] for k in ("c_0_1", "c_1_2", "c_2_3", "c_0_3")])
            assert rho == pytest.approx(cell["rho"], rel=1e-12)

    def test_skipped_points_counted(self, tmp_path):
        out = str(tmp_path / "fig1.csv")
        assert main(["figure", "fig1", "0.6", "2.4", "10", "--out", out]) == 0
        _, rows, comments = parse_csv(out)
        skipped = 10 - len(rows)
        assert skipped > 0
        assert comments[0] == f"# skipped {skipped} infeasible grid points of 10"

    @pytest.mark.parametrize("family", ["fig4", "fig5"])
    def test_zero_parameter_is_skipped(self, tmp_path, family):
        out = str(tmp_path / f"{family}.csv")
        assert main(["figure", family, "0", "1", "5", "--out", out]) == 0
        _, rows, comments = parse_csv(out)
        assert [row[0] for row in rows] == [0.25, 0.5, 0.75, 1.0]
        assert "# skipped 1 infeasible grid points of 5" in comments

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family,lo,hi,steps,written", [
        ("fig2", "-1", "2.9", 40, 29),
        ("fig4", "0", "5", 11, 10),
    ])
    def test_grids_through_zero_warn_nothing(self, tmp_path, family, lo, hi, steps, written):
        # fig2 crosses r = -1, where its reference formula divides by zero, and
        # r = 0; fig4 starts at c = 0, where its fixed edge 1/c divides by zero
        out = str(tmp_path / f"{family}.csv")
        assert main(["figure", family, lo, hi, str(steps), "--out", out]) == 0
        _, rows, comments = parse_csv(out)
        assert len(rows) == written
        assert comments[0] == f"# skipped {steps - written} infeasible grid points of {steps}"

    def test_empty_feasible_range_exit_2(self, tmp_path):
        out = str(tmp_path / "fig2.csv")
        assert main(["figure", "fig2", "3.5", "4.0", "5", "--out", out]) == 2

    def test_eigensolver_failure_exit_4(self, tmp_path, monkeypatch):
        def failing_eigvalsh(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "0.6", "1.9", "10", "--out", str(out)]) == 4
        assert not out.exists()

    def test_bad_range_exit_2(self, tmp_path):
        out = str(tmp_path / "fig1.csv")
        assert main(["figure", "fig1", "1.9", "0.6", "10", "--out", out]) == 2
        assert main(["figure", "fig1", "0.6", "1.9", "0", "--out", out]) == 2

    @pytest.mark.parametrize("lo,hi", [("0.6", "inf"), ("-inf", "1.9"), ("nan", "1.9"), ("0.6", "nan"),
                                       ("-1e308", "1e308")])
    def test_non_finite_range_exit_2(self, tmp_path, capsys, lo, hi):
        # linspace would warn on these, and hi - lo overflows on the last
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--out", str(out), "--", lo, hi, "5"]) == 2
        assert capsys.readouterr().err == "figure: need finite lo < hi and steps >= 1\n"
        assert not out.exists()


class TestSearchCommand:
    def test_three_cycle_exit_0(self, capsys):
        assert main(["search", "3", "--restarts", "5", "--iters", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "no counterexample found" in out

    def test_six_cycle_exit_10_with_conductances(self, capsys):
        assert main(["search", "6", "--restarts", "10", "--iters", "500", "--seed", "0"]) == 10
        out = capsys.readouterr().out
        assert "COUNTEREXAMPLE FOUND" in out
        assert "best_max_product 5.03" in out

    def test_zero_restarts_exit_2(self):
        assert main(["search", "3", "--restarts", "0"]) == 2

    def test_csv_of_restart_bests(self, tmp_path, capsys):
        out = str(tmp_path / "search.csv")
        assert main(["search", "4", "--restarts", "4", "--iters", "150",
                     "--seed", "2", "--out", out]) == 0
        headers, rows, _ = parse_csv(out)
        assert headers[:3] == ["restart", "max_product", "min_product"]
        assert len(rows) == 4
        assert len(headers) == 3 + 4 + 4


    def test_trace_records_restart_counters(self, tmp_path, capsys):
        argv = ["search", "5", "--restarts", "3", "--iters", "300", "--seed", "3", "--out"]
        assert main(argv + [str(tmp_path / "plain.csv")]) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "search.jsonl"
        assert main(argv + [str(tmp_path / "traced.csv"), "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == plain
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        report = ohmlab.search_counterexample(5, restarts=3, iters_per_restart=300, seed=3)
        fields = ["restart", "max_product", "max_iterations", "max_evaluations", "max_converged",
                  "max_nonfinite"]
        assert records == [{name: getattr(rec, name) for name in fields} for rec in report.per_restart]
        assert [list(record) for record in records] == [fields] * 3
        # the seed mixes converged and capped restarts
        assert {record["max_converged"] for record in records} == {True, False}

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        out, trace = tmp_path / "search.csv", tmp_path / "search.jsonl"
        assert main(["search", "5", "--restarts", "3", "--iters", "300", "--seed", "3",
                     "--out", str(out), "--trace", str(trace)]) == 0
        stdout = capsys.readouterr().out.encode()
        outputs = {"stdout": stdout, "out": out.read_bytes(), "trace": trace.read_bytes()}
        assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == SEARCH_SHA256

    def test_maximizing_columns_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "search.csv"
        assert main(["search", "5", "--restarts", "3", "--iters", "300", "--seed", "3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        keep = [k for k, name in enumerate(rows[0]) if not name.startswith("min_")]
        text = "".join(",".join(row[k] for k in keep) + "\n" for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_MAX_COLUMNS_SHA256
        # the minimizing columns hold the unit-cycle value on every row
        baseline = repr(ohmlab.unit_cycle_baseline(5).lambda_max * 4.0)
        assert {tuple(row[k] for k in range(len(row)) if k not in keep) for row in rows[1:]} == {
            (baseline,) + ("1.0",) * 5}

    def test_unwritable_trace_exit_2(self, tmp_path):
        trace = str(tmp_path / "missing" / "t.jsonl")
        assert main(["search", "3", "--restarts", "2", "--iters", "50", "--trace", trace]) == 2


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_family_choice(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "fig9", "0", "1", "5", "--out", "x.csv"])
        assert excinfo.value.code == 2


@pytest.fixture
def fresh_parser():
    """Start and end the test with no parser built, so it sees the first build and leaves none behind."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call; a usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestOneParserPerProcess:
    def test_many_calls_build_one_parser(self, fresh_parser, monkeypatch):
        built = []
        construct = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            construct(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert _run(["verify", "1", "1", "1"])[0] == 0
        after_first = len(built)
        assert after_first > 0
        for _ in range(20):
            assert _run(["verify", "0.375", "1.5", "1.5"])[0] == 0
        assert _run(["frobnicate"])[0] == 2
        assert len(built) == after_first
        assert build_parser.cache_info().misses == 1

    def test_no_value_leaks_between_calls(self, fresh_parser, tmp_path):
        fig = str(tmp_path / "fig1.csv")
        trace = tmp_path / "trace.jsonl"
        search = ["search", "3", "--restarts", "2", "--iters", "40", "--seed", "3"]
        sequence = [
            ["--tol", "0.5", "verify", "1", "1", "1.1"],
            ["verify", "1", "1", "1.1"],
            ["figure", "fig1", "0.6", "1.9", "7", "--out", fig],
            ["figure", "fig1", "0.6", "1.9", "7"],
            ["verify", "1", "x", "2"],
            search + ["--trace", str(trace)],
            search,
            ["frobnicate"],
            [],
            ["verify", "1", "1", "1.1"],
        ]
        shared = []
        for argv in sequence:
            trace.unlink(missing_ok=True)
            shared.append(_run(argv) + (trace.exists(),))
        assert build_parser.cache_info().misses == 1
        rebuilt = []
        for argv in sequence:
            trace.unlink(missing_ok=True)
            build_parser.cache_clear()
            rebuilt.append(_run(argv) + (trace.exists(),))
        assert shared == rebuilt
        # --tol defaults per call: the wide tolerance calls the cycle equal,
        # the default one does not
        products = "lambda1_rho=5.8125 lambda2_rho=6.2"
        assert shared[0][1] == products + " EQUALITY\n"
        assert shared[1][1] == products + " OK\n" and shared[9] == shared[1]
        assert [code for code, *_ in shared] == [0, 0, 0, 2, 2, 0, 0, 2, 2, 0]
        assert "--out" in shared[3][2] and "invalid float value: 'x'" in shared[4][2]
        # --trace defaults per call: only the call that names the file writes it
        assert [written for *_, written in shared] == [False] * 5 + [True] + [False] * 4


#: Imports ``ohmlab.cycles`` alone, then runs the cycle subcommands and the
#: general-graph ones in a fresh interpreter, and reports the scipy modules
#: loaded after each stage and whether ``numpy.random`` is loaded at the end.
IMPORT_PROBE = textwrap.dedent("""
    import json, os, sys

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    import ohmlab.cycles
    report = {"cycles": scipy_modules()}
    import ohmlab, ohmlab.cli
    from ohmlab.cli import main

    tmp = sys.argv[1]
    cycle_graph = os.path.join(tmp, "c3.txt")
    with open(cycle_graph, "w") as handle:
        handle.write("n 3\\n0 1 1\\n0 2 2\\n1 2 3\\n")
    graph = os.path.join(tmp, "c4_chord.txt")
    with open(graph, "w") as handle:
        handle.write("n 4\\n0 1 1\\n1 2 2\\n2 3 3\\n0 3 4\\n0 2 1\\n")
    report.update({"import": scipy_modules(), "parsers_at_import": ohmlab.cli.build_parser.cache_info().currsize})
    report["cycle_codes"] = [
        main(["verify", "1", "2", "3"]),
        main(["figure", "fig1", "0.6", "1.9", "5", "--out", os.path.join(tmp, "fig1.csv")]),
        main(["rho", cycle_graph]),
        main(["resistance", cycle_graph, "0", "2"]),
    ]
    report["cycle"] = scipy_modules()
    report["graph_codes"] = [main(["spectrum", graph]), main(["rho", graph])]
    report["graph"] = scipy_modules()
    report["random"] = "numpy.random" in sys.modules
    print(json.dumps(report))
""")

#: Runs the search alone in a fresh interpreter and reports its exit code, the
#: scipy modules loaded and whether ``numpy.random`` and OpenSSL's ``_hashlib``
#: (which importing ``numpy.random`` loads through ``secrets``) are loaded.
SEARCH_PROBE = textwrap.dedent("""
    import json, sys
    from ohmlab.cli import main

    code = main(["search", "3", "--restarts", "2"])
    print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                      "random": "numpy.random" in sys.modules, "hashlib": "_hashlib" in sys.modules}))
""")


def run_probe(probe, *args):
    """Runs ``probe`` in a fresh interpreter on this checkout's ``ohmlab`` and
    returns the JSON object on the last line of its stdout."""
    env = dict(os.environ)
    source = os.path.dirname(os.path.dirname(ohmlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe, *args],
                            env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(result.stdout.splitlines()[-1])


class TestImports:
    def test_cycle_subcommands_never_load_scipy(self, tmp_path):
        report = run_probe(IMPORT_PROBE, str(tmp_path))
        assert report["cycles"] == []
        assert report["import"] == []
        assert report["parsers_at_import"] == 0
        # rho and resistance on a cycle file take the arc route, which needs no LAPACK
        assert report["cycle_codes"] == [0, 0, 0, 0]
        assert report["cycle"] == []
        assert report["graph_codes"] == [0, 0]
        assert [m for m in report["graph"] if m.startswith("scipy.linalg")] == ["scipy.linalg._flapack"]
        assert "scipy.linalg" not in report["graph"]
        # numpy.random costs a bare process about 6 MiB and 16 ms; no subcommand needs it
        assert report["random"] is False

    def test_search_never_loads_scipy(self):
        # the search draws its starting simplices in Python integers, not through numpy.random
        assert run_probe(SEARCH_PROBE) == {"code": 0, "scipy": [], "random": False, "hashlib": False}

    def test_no_module_imports_another_modules_private_name(self):
        package = pathlib.Path(ohmlab.__file__).parent
        private = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ohmlab")):
                    private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
        assert private == []
