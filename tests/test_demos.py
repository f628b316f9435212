"""The scripts under demos/ run to completion in-process."""

import importlib.util
from pathlib import Path

import pytest

from ohmlab import FIGURE_FAMILIES, search_counterexample

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_run(tmp_path, monkeypatch, capsys):
    load_demo("01_resistance_basics").main()
    assert "round-trips: True" in capsys.readouterr().out

    load_demo("02_three_cycle_bound").main()
    assert "over 20000 random 3-cycles" in capsys.readouterr().out

    figures = load_demo("03_figure_data")
    monkeypatch.setattr(figures, "OUT_DIR", str(tmp_path))
    figures.main()
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(
        f"{family}.csv" for family in FIGURE_FAMILIES)

    report = search_counterexample(6, restarts=10, seed=0)
    assert report.counterexample
    product, lam1_scaled, rho_scaled = load_demo("04_counterexample_search").verify_independently(report)
    assert product == pytest.approx(report.best_max_product, rel=1e-9)
    assert rho_scaled == pytest.approx(5.0, rel=1e-12)
    # the unit 6-cycle has lambda_1 = 1 at rho = 5
    assert lam1_scaled > 1.0
