"""Smoke test: each script in demos/ runs to the end at toy sizes and prints
its report.  The scripts run in-process as ``__main__`` with a patched
``sys.argv``, so an API change that breaks one fails here."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

ARGS = {
    "bivariate_study.py": ["--j", "20"],
    "directional_quadrants.py": ["--j", "20", "--n", "200"],
    "ensemble_diagnostics.py": ["--j", "20"],
    "highdim_contrast.py": ["--j", "20", "--d", "5", "--kendall-n", "200"],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("script", sorted(ARGS))
def test_demo_runs(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, *ARGS[script]])
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
