"""Command-line interface: outputs, CSV files, the exit-code taxonomy, imports."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ohmlab
from ohmlab import cycle_rho_closed_form, scan_family, three_cycle_rho
from ohmlab.cli import main

UNIT_THREE = "n 3\n0 1 1\n0 2 1\n1 2 1\n"
UNIT_FOUR = "n 4\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n"
UNIT_SIX = "n 6\n" + "".join(f"{k} {(k + 1) % 6} 1\n" for k in range(6))
TWO_VERTEX = "n 2\n0 1 4\n"
DISCONNECTED = "n 4\n0 1 1\n2 3 1\n"
B32_FAMILY = "n 3\n0 1 0.375\n0 2 1.5\n1 2 1.5\n"


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

    @pytest.mark.parametrize("c", ["1e300", "1e160", "1e-300"])
    def test_equal_extreme_conductances_are_equality(self, capsys, c):
        # rho = 2E/S of these cycles is scaled so that E neither underflows
        # (large conductances) nor overflows (small ones)
        assert main(["verify", c, c, c]) == 0
        assert capsys.readouterr().out == "lambda1_rho=6 lambda2_rho=6 EQUALITY\n"

    @pytest.mark.parametrize("args,code", [
        (["inf", "1", "1"], 3),  # not a graph
        (["1e308", "1e308", "1e308"], 2),  # the Laplacian's diagonal overflows
        (["1", "1", "0"], 2),
    ])
    def test_invalid_conductances(self, capsys, args, code):
        with np.errstate(over="ignore"):
            assert main(["verify"] + args) == code
        assert "VIOLATION" not in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["1e-320", "1", "1"],  # rho = inf/inf
        ["1e200", "1e-200", "1"],  # lambda_1 rho is 3, below eigvalsh's resolution
    ])
    def test_unresolvable_products_exit_4(self, capsys, args):
        with np.errstate(all="ignore"):
            assert main(["verify"] + args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot be resolved" in captured.err


class TestFigureCommand:
    def test_fig1_csv_matches_recomputation_bitwise(self, tmp_path, capsys):
        out = str(tmp_path / "fig1.csv")
        assert main(["figure", "fig1", "0.6", "1.9", "19", "--out", out]) == 0
        headers, rows, comments = parse_csv(out)
        assert headers == ["param", "c_0_1", "c_0_2", "c_1_2", "rho",
                           "lambda_1", "lambda_2", "lambda1_rho", "lambdamax_rho"]
        recomputed = scan_family("fig1", np.linspace(0.6, 1.9, 19))
        assert len(rows) == len(recomputed)
        for row, point in zip(rows, recomputed):
            assert row[0] == point.parameter
            assert tuple(row[1:4]) == point.conductances
            assert row[4] == point.rho
            assert tuple(row[5:7]) == point.eigenvalues[1:]
            assert row[7] == point.lambda1_rho
            assert row[8] == point.lambdamax_rho
        assert comments == ["# skipped 0 infeasible grid points of 19"]

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
                rho = three_cycle_rho(cell["c_0_1"], cell["c_0_2"], cell["c_1_2"])
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
        fields = ["restart", "max_product", "min_product"] + [
            f"{side}_{name}" for side in ("max", "min")
            for name in ("iterations", "evaluations", "converged", "nonfinite")]
        assert records == [{name: getattr(rec, name) for name in fields} for rec in report.per_restart]
        assert [list(record) for record in records] == [fields] * 3
        # the seed mixes converged and capped restarts
        assert {record["max_converged"] for record in records} == {True, False}

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


#: Runs the cycle subcommands, then the general-graph ones, in a fresh
#: interpreter and reports the scipy modules loaded after each stage.
IMPORT_PROBE = textwrap.dedent("""
    import json, os, sys
    import ohmlab, ohmlab.cli
    from ohmlab.cli import main

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    tmp = sys.argv[1]
    graph = os.path.join(tmp, "c3.txt")
    with open(graph, "w") as handle:
        handle.write("n 3\\n0 1 1\\n0 2 2\\n1 2 3\\n")
    report = {"import": scipy_modules()}
    report["cycle_codes"] = [
        main(["verify", "1", "2", "3"]),
        main(["figure", "fig1", "0.6", "1.9", "5", "--out", os.path.join(tmp, "fig1.csv")]),
        main(["search", "3", "--restarts", "2"]),
    ]
    report["cycle"] = scipy_modules()
    report["graph_codes"] = [main(["spectrum", graph]), main(["rho", graph])]
    report["graph"] = scipy_modules()
    print(json.dumps(report))
""")


class TestImports:
    def test_cycle_subcommands_never_load_scipy(self, tmp_path):
        env = dict(os.environ)
        source = os.path.dirname(os.path.dirname(ohmlab.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
                                env=env, capture_output=True, text=True, timeout=120, check=True)
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["import"] == []
        assert report["cycle_codes"] == [0, 0, 0]
        assert report["cycle"] == []
        assert report["graph_codes"] == [0, 0]
        assert "scipy.linalg.lapack" in report["graph"]
