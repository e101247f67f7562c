"""Smoke test: demos 01-05 run to completion against the installed package."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_dispersion_and_modes.py",
    "02_bath_coefficients.py",
    "03_relaxation_to_equilibrium.py",
    "04_continuum_heat_equation.py",
    "05_chain_versus_continuum.py",
])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
