"""Output-correctness gate for one CLI run of a benchmark workload.

A run passes when it
  * exited with code 0,
  * wrote a run report that passes `heatchain.report.validate_report`,
  * wrote every CSV artifact with the recorded number of data rows,
  * reproduced the recorded numeric summary values within SUMMARY_TOLERANCES,
  * (coefficients) reproduced the recorded last row of coefficients.csv, and
    its high-temperature end agrees with the closed forms of
    `high_temp_diffusion`, an oracle independent of the recorded values.

The tolerances accept dynamics that agree with the recorded fixed-step RK4
run to about 1e-10 relative: injecting a random relative error of 1e-10 into
the covariance at every step moved `max_dev_field` by 7e-10,
`final_max_deviation_from_gibbs` by 4e-9, `max_dev_transient` by 7e-6 and the
fitted slopes and decay rates by under 2e-8 relative.  An error of 1e-6 per
step moves each of them by orders of magnitude more than its tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from heatchain.config import load_config
from heatchain.diffusion import high_temp_diffusion
from heatchain.report import validate_report

DEFAULT_TOLERANCE = (1e-7, 0.0)  # (rtol, atol): |got - ref| <= rtol |ref| + atol
SUMMARY_TOLERANCES = {
    # norms of chain-minus-continuum differences, already relative to the field
    "max_dev_field": (0.0, 1e-8),
    # the same difference over the transient amplitude, which decays by e^-8
    "max_dev_transient": (0.0, 1e-4),
    # max |Sigma(t_final) - Sigma_Gibbs|, a difference of O(1) covariances
    "final_max_deviation_from_gibbs": (0.0, 1e-8),
}
LAST_ROW_FILES = ("coefficients.csv",)
LAST_ROW_RTOL = 1e-8  # the quadrature runs at epsrel 1e-10
# The closed forms drop corrections of order (hbar omega / k_B T)^2, about
# 1e-7 at the sweep's upper end; 1e-5 still catches a wrong coefficient.
HIGH_T_RTOL = 1e-5


def count_rows(path: Path) -> int:
    """Data rows of a CSV written by `heatchain.report.write_csv`."""
    return path.read_bytes().count(b"\n") - 1


def _numeric_summary(report: dict) -> dict:
    return {
        key: value
        for key, value in report["summary"].items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _last_row(path: Path) -> "list[float]":
    return [float(v) for v in path.read_text().rstrip("\n").rsplit("\n", 1)[-1].split(",")]


def _close(got: float, ref: float, rtol: float, atol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= rtol * abs(ref) + atol


def record(subcommand: str, outdir: Path) -> dict:
    """Reference values of a run known to be correct."""
    report = json.loads((outdir / f"{subcommand}_report.json").read_text())
    csvs = sorted(outdir.glob("*.csv"))
    return {
        "rows": {p.name: count_rows(p) for p in csvs},
        "summary": _numeric_summary(report),
        "last_rows": {p.name: _last_row(p) for p in csvs if p.name in LAST_ROW_FILES},
    }


def check(subcommand: str, outdir: Path, exit_code, config: Path, ref: dict) -> "list[str]":
    """Problems with one run's outputs; an empty list means the run is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    report_path = outdir / f"{subcommand}_report.json"
    if not report_path.is_file():
        return [f"missing {report_path.name}"]
    report = json.loads(report_path.read_text())
    problems = [f"report: {p}" for p in validate_report(report)]

    for name, rows in ref["rows"].items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"missing {name}")
        elif count_rows(path) != rows:
            problems.append(f"{name}: {count_rows(path)} rows, expected {rows}")

    summary = _numeric_summary(report)
    for key, want in ref["summary"].items():
        rtol, atol = SUMMARY_TOLERANCES.get(key, DEFAULT_TOLERANCE)
        got = summary.get(key)
        if got is None or not _close(got, want, rtol, atol):
            problems.append(f"summary.{key} = {got!r}, reference {want!r} (rtol {rtol}, atol {atol})")

    for name, want in ref["last_rows"].items():
        path = outdir / name
        if not path.is_file():
            continue
        got = _last_row(path)
        if len(got) != len(want) or not all(
            _close(g, w, LAST_ROW_RTOL, 0.0) for g, w in zip(got, want)
        ):
            problems.append(f"{name}: last row {got}, reference {want}")

    if subcommand == "coefficients" and (outdir / "coefficients.csv").is_file():
        problems += check_high_temperature(outdir / "coefficients.csv", config)
    return problems


def check_high_temperature(csv_path: Path, config: Path) -> "list[str]":
    """Last sweep row against the high-temperature closed forms."""
    params = load_config(config).chain
    t, d_xx, d_pp, d_ex, s, u_eq, c = _last_row(csv_path)
    kt = params.k_boltz * t
    a = params.lattice_const
    closed = high_temp_diffusion(params, t)
    expected = {
        "D_xx": (d_xx, closed.d_xx),
        "D_pp": (d_pp, closed.d_pp),
        "D_ex": (d_ex, closed.d_ex),
        "s": (s, 2.0 * params.lambda_fric * kt / a),
        "u_eq": (u_eq, kt / a),
        "C": (c, params.k_boltz / a),
    }
    return [
        f"coefficients.csv at T = {t}: {name} = {got!r}, high-temperature form {want!r}"
        for name, (got, want) in expected.items()
        if not _close(got, want, HIGH_T_RTOL, 0.0)
    ]
