"""Command-line interface: scenario orchestration and artifact emission.

    heatchain <subcommand> --config <path> [--out <dir>]

Subcommands: dispersion, coefficients, relax, compare, conductivity, verify.
Each run writes CSV artifacts plus one JSON run report; the output directory
comes from --out, the HEATCHAIN_OUT environment variable, or meta.output_dir
in the config (in that order of precedence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .chain import dispersion, mode_grid
from .config import ConfigError, ScenarioConfig, load_config, require_run_keys, run_value
from .continuum import (
    CompareScenario,
    compare_discrete_continuum,
    klemens_conductivity,
    transport_coefficients,
)
from .covariance import PSDViolationError
from .diffusion import (
    gibbs_covariance,
    gibbs_energy_density,
    heat_capacity_density,
    mode_sum_diffusion,
    quad_diffusion,
    source_density,
    thermal_matrices,
)
from .dynamics import (
    evolve,
    gaussian_site_weights,
    hotspot_state,
    site_observables,
    uniform_state,
)
from .report import RunReport, write_csv
from .verify import DEFAULT_PARAMS, run_verify

OUT_ENV = "HEATCHAIN_OUT"


def _config_echo(cfg: ScenarioConfig) -> dict:
    return {"chain": asdict(cfg.chain), "run": dict(cfg.run), "meta": dict(cfg.meta)}


def _temperature_sweep(cfg: ScenarioConfig, subcommand: str) -> np.ndarray:
    require_run_keys(cfg, ["t_min", "t_max", "t_steps"], subcommand)
    t_min = run_value(cfg, "t_min")
    t_max = run_value(cfg, "t_max")
    steps = run_value(cfg, "t_steps", int)
    scale = str(cfg.run.get("scale", "linear"))
    if steps < 1:
        raise ConfigError(["run.t_steps: must be >= 1"])
    bounds = {"t_min": t_min} if steps == 1 else {"t_min": t_min, "t_max": t_max}
    log = steps > 1 and scale == "log"
    bad = [f"run.{key}: must be {'> 0 for log scale' if log else '>= 0'}, got {value}"
           for key, value in bounds.items() if value < 0 or (log and value == 0)]
    if bad:
        raise ConfigError(bad)
    if steps == 1:
        return np.array([t_min])
    if scale == "linear":
        return np.linspace(t_min, t_max, steps)
    if scale == "log":
        return np.geomspace(t_min, t_max, steps)
    raise ConfigError([f"run.scale: expected 'linear' or 'log', got {scale!r}"])


def cmd_dispersion(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    q = np.sort(mode_grid(p))
    w = dispersion(p, q)
    path = write_csv(outdir / "dispersion.csv", ["q", "omega"], zip(q.tolist(), np.asarray(w).tolist()))
    summary = {
        "omega_zone_edge": float(dispersion(p, np.pi)),
        "omega_zone_center": float(dispersion(p, 0.0)),
        "sound_speed": p.sound_speed,
    }
    return RunReport("dispersion", _config_echo(cfg), summary, artifacts=[str(path)])


def cmd_coefficients(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    temps = _temperature_sweep(cfg, "coefficients")
    method = str(cfg.run.get("method", "quad"))
    if method not in ("quad", "mode_sum"):
        raise ConfigError([f"run.method: expected 'quad' or 'mode_sum', got {method!r}"])
    diff = quad_diffusion(p, temps) if method == "quad" else mode_sum_diffusion(p, temps)
    columns = (temps, diff.d_xx, diff.d_pp, diff.d_ex, source_density(p, diff),
               gibbs_energy_density(p, temps), heat_capacity_density(p, temps))
    rows = list(zip(*(c.tolist() for c in columns)))
    path = write_csv(outdir / "coefficients.csv", ["T", "D_xx", "D_pp", "D_ex", "s", "u_eq", "C"], rows)
    last = rows[-1]
    summary = {
        "temperatures": len(rows),
        "method": method,
        "source_over_newton_limit_at_t_max": last[4] * p.lattice_const / (2.0 * p.lambda_fric * p.k_boltz * last[0]),
    }
    return RunReport("coefficients", _config_echo(cfg), summary, artifacts=[str(path)])


def cmd_relax(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    require_run_keys(cfg, ["scenario", "t_final"], "relax")
    scenario = str(cfg.run["scenario"])
    t_final = run_value(cfg, "t_final")
    dt_max = run_value(cfg, "dt_max")
    stride = run_value(cfg, "sample_stride", int, 10)

    if scenario == "uniform":
        require_run_keys(cfg, ["t_hot"], "relax")
        state0 = uniform_state(p, run_value(cfg, "t_hot"))
    elif scenario == "hotspot":
        require_run_keys(cfg, ["t_hot"], "relax")
        t_hot = run_value(cfg, "t_hot")
        t_cold = run_value(cfg, "t_cold", float, p.bath_temp)
        if "hotspot_width" in cfg.run:
            weights = gaussian_site_weights(p.n_sites, p.n_sites / 2.0, run_value(cfg, "hotspot_width"))
        else:
            require_run_keys(cfg, ["hot_sites"], "relax")
            count = run_value(cfg, "hot_sites", int)
            if not 0 < count <= p.n_sites:
                raise ConfigError(["run.hot_sites: must be in (0, n_sites]"])
            weights = np.zeros(p.n_sites)
            start = (p.n_sites - count) // 2
            weights[start : start + count] = 1.0
        mode = str(cfg.run.get("hotspot_mode", "thermal"))
        state0 = hotspot_state(p, t_cold, t_hot, weights, mode=mode)
    else:
        raise ConfigError([f"run.scenario: expected 'uniform' or 'hotspot', got {scenario!r}"])

    mats = thermal_matrices(p)
    traj = evolve(state0, mats, t_final=t_final, dt_max=dt_max, sample_stride=stride)

    rows = []
    energies = []
    for state in traj.states:
        obs = site_observables(state, p)
        energies.append(obs.total_energy)
        for k in range(p.n_sites):
            rows.append((state.time, k, obs.energies[k], obs.currents[k], obs.densities[k]))
    path = write_csv(outdir / "relax_sites.csv", ["t", "k", "E_k", "J_k", "u_k"], rows)

    u = np.array(energies)
    u_eq = p.n_sites * p.lattice_const * gibbs_energy_density(p, p.bath_temp)
    mask = np.abs(u - u_eq) > 1e-300
    slope = np.nan
    if mask.sum() >= 2:
        a = np.vstack([traj.times[mask], np.ones(mask.sum())]).T
        slope = float(np.linalg.lstsq(a, np.log(np.abs(u[mask] - u_eq)), rcond=None)[0][0])
    gibbs = gibbs_covariance(p, p.bath_temp)
    final_dev = float(np.max(np.abs(traj.states[-1].sigma - gibbs.sigma)))
    summary = {
        "decay_rate_fit": -slope if np.isfinite(slope) else slope,
        "decay_rate_expected": 2.0 * p.lambda_fric,
        "total_energy_initial": float(u[0]),
        "total_energy_equilibrium": u_eq,
        "final_max_deviation_from_gibbs": final_dev,
    }
    return RunReport("relax", _config_echo(cfg), summary, artifacts=[str(path)])


def cmd_compare(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    require_run_keys(cfg, ["hotspot_width", "t_hot", "t_cold", "t_final"], "compare")
    scenario = CompareScenario(
        t_hot=run_value(cfg, "t_hot"),
        t_cold=run_value(cfg, "t_cold"),
        width_sites=run_value(cfg, "hotspot_width"),
        t_final=run_value(cfg, "t_final"),
        hotspot_mode=str(cfg.run.get("hotspot_mode", "thermal")),
        dt_max=run_value(cfg, "dt_max"),
        sample_interval=run_value(cfg, "sample_interval"),
        fit_t_min=run_value(cfg, "fit_t_min"),
        fit_t_max=run_value(cfg, "fit_t_max"),
    )
    rep = compare_discrete_continuum(p, scenario)

    chain_rows = []
    for i, t in enumerate(rep.times):
        for k in range(p.n_sites):
            chain_rows.append((float(t), k, rep.u_disc[i, k], rep.j_disc[i, k]))
    chain_path = write_csv(outdir / "compare_chain.csv", ["t", "k", "u_k", "J_k"], chain_rows)
    pde_rows = []
    for i, t in enumerate(rep.times):
        for k in range(rep.u_pde.shape[1]):
            pde_rows.append((float(t), k * p.lattice_const, rep.u_pde[i, k]))
    pde_path = write_csv(outdir / "compare_pde.csv", ["t", "x", "u"], pde_rows)
    dev_path = write_csv(
        outdir / "compare_deviation.csv",
        ["t", "dev_field", "dev_transient", "slope_per_time"],
        zip(rep.times.tolist(), rep.dev_field.tolist(), rep.dev_transient.tolist(),
            rep.slope_per_time.tolist()),
    )

    summary = {
        "max_dev_field": rep.max_dev_field,
        "max_dev_transient": float(np.max(rep.dev_transient)),
        "fourier_fit_slope": rep.fit_slope,
        "predicted_diff_const": rep.diff_const,
        "slope_over_predicted": rep.slope_ratio,
        "u_eq": rep.u_eq,
    }
    return RunReport(
        "compare",
        _config_echo(cfg),
        summary,
        warnings=list(rep.warnings),
        artifacts=[str(chain_path), str(pde_path), str(dev_path)],
    )


def cmd_conductivity(cfg: ScenarioConfig, outdir: Path) -> RunReport:
    p = cfg.chain
    temps = _temperature_sweep(cfg, "conductivity")
    velocity = str(cfg.run.get("velocity", "sound"))
    tc = transport_coefficients(p, temps)
    columns = (temps, heat_capacity_density(p, temps), tc.kappa,
               klemens_conductivity(p, temps, velocity=velocity), np.full_like(temps, tc.diff_const))
    rows = zip(*(c.tolist() for c in columns))
    path = write_csv(outdir / "conductivity.csv", ["T", "C", "kappa_continuum", "kappa_klemens", "sigma"], rows)
    summary = {
        "range_b": tc.range_b,
        "eff_velocity": p.sound_speed,
        "diff_const": tc.diff_const,
        "velocity_convention": velocity,
    }
    return RunReport("conductivity", _config_echo(cfg), summary, artifacts=[str(path)])


def cmd_verify(cfg: "ScenarioConfig | None", outdir: Path) -> RunReport:
    params = cfg.chain if cfg is not None else DEFAULT_PARAMS
    seed = cfg.seed if cfg is not None else 1234
    results = run_verify(params, seed=seed)
    for res in results:
        print(res.line())
    criteria = [
        {"name": r.name, "passed": r.passed, "value": r.value, "tolerance": r.tolerance,
         "detail": r.detail}
        for r in results
    ]
    summary = {
        "checks_total": len(results),
        "checks_passed": sum(r.passed for r in results),
    }
    echo = _config_echo(cfg) if cfg is not None else {"chain": asdict(params), "run": {}, "meta": {}}
    return RunReport("verify", echo, summary, criteria=criteria)


COMMANDS = {
    "dispersion": cmd_dispersion,
    "coefficients": cmd_coefficients,
    "relax": cmd_relax,
    "compare": cmd_compare,
    "conductivity": cmd_conductivity,
    "verify": cmd_verify,
}


def _error_record(kind: str, message, code: int) -> int:
    record = {"error": kind, "detail": message}
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatchain",
        description="Heat transport in a damped harmonic ring: moment dynamics, "
        "bath coefficients, and the continuum heat equation.",
    )
    parser.add_argument("--version", action="version", version=f"heatchain {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} workflow")
        sp.add_argument("--config", required=(name != "verify"), default=None,
                        help="path to the scenario configuration file")
        sp.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config is not None else None
    except ConfigError as exc:
        return _error_record("config", exc.problems, 2)

    outdir = Path(
        args.out
        or os.environ.get(OUT_ENV)
        or (cfg.output_dir if cfg is not None else "out")
    )
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        if args.subcommand == "verify":
            report = cmd_verify(cfg, outdir)
        else:
            if cfg is None:
                return _error_record("config", "--config is required", 2)
            report = COMMANDS[args.subcommand](cfg, outdir)
    except ConfigError as exc:
        return _error_record("config", exc.problems, 2)
    except (PSDViolationError, ValueError, RuntimeError) as exc:
        return _error_record(type(exc).__name__, str(exc), 3)

    report_path = report.write(outdir / f"{args.subcommand}_report.json")
    print(f"wrote {report_path}")
    for artifact in report.artifacts:
        print(f"wrote {artifact}")
    if args.subcommand == "verify":
        failed = [c for c in report.criteria or [] if not c["passed"]]
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
